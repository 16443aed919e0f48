open Nca_logic

type entry = {
  name : string;
  description : string;
  rules : Rule.t list;
  instance : Instance.t;
  e : Symbol.t;
  bdd_expected : bool option;
}

let e2 = Symbol.make "E" 2
let rules = Parser.parse_rules
let inst = Parser.instance

let example1 =
  {
    name = "example1";
    description = "Example 1: successor + transitivity (not bdd)";
    rules =
      rules {| succ: E(x,y) -> E(y,z).
               trans: E(x,y), E(y,z) -> E(x,z). |};
    instance = inst "E(a,b)";
    e = e2;
    bdd_expected = Some false;
  }

let example1_bdd =
  {
    name = "example1_bdd";
    description =
      "Example 1 repaired: transitivity weakened to the bdd two-hop rule";
    rules =
      rules {| succ: E(x,y) -> E(y,z).
               short: E(x,x1), E(y,y1) -> E(x,y1). |};
    instance = inst "E(a,b)";
    e = e2;
    bdd_expected = Some true;
  }

let short_only =
  {
    name = "short_only";
    description = "only the two-hop rule E(x,x') ∧ E(y,y') → E(x,y')";
    rules = rules {| short: E(x,x1), E(y,y1) -> E(x,y1). |};
    instance = inst "E(a,b)";
    e = e2;
    bdd_expected = Some true;
  }

let succ_only =
  {
    name = "succ_only";
    description = "infinite path: E(x,y) → ∃z E(y,z)";
    rules = rules {| succ: E(x,y) -> E(y,z). |};
    instance = inst "E(a,b)";
    e = e2;
    bdd_expected = Some true;
  }

let dense =
  {
    name = "dense";
    description = "dense order: E(x,y) → ∃z E(x,z) ∧ E(z,y)";
    rules = rules {| dense: E(x,y) -> E(x,z), E(z,y). |};
    instance = inst "E(a,b)";
    e = e2;
    bdd_expected = Some true;
  }

let inclusion =
  {
    name = "inclusion";
    description = "alternating inclusion dependencies R ⇒ S ⇒ R";
    rules =
      rules {| rs: R(x,y) -> S(y,z).
               sr: S(x,y) -> R(y,z). |};
    instance = inst "R(a,b)";
    e = Symbol.make "R" 2;
    bdd_expected = Some true;
  }

let person_knows =
  {
    name = "person_knows";
    description = "every person knows someone; known ones are persons";
    rules =
      rules {| k: Person(x) -> Knows(x,y).
               p: Knows(x,y) -> Person(y). |};
    instance = inst "Person(alice)";
    e = Symbol.make "Knows" 2;
    bdd_expected = Some true;
  }

let symmetric =
  {
    name = "symmetric";
    description = "symmetric closure (Datalog): E(x,y) → E(y,x)";
    rules = rules {| sym: E(x,y) -> E(y,x). |};
    instance = inst "E(a,b)";
    e = e2;
    bdd_expected = Some true;
  }

let fork =
  {
    name = "fork";
    description =
      "the paper's predicate-unique forward-existential example: \
       A(x) ∧ B(y) → ∃z D(x,z) ∧ E(y,z)";
    rules = rules {| fork: A(x), B(y) -> D(x,z), E(y,z). |};
    instance = inst "A(a), B(b)";
    e = e2;
    bdd_expected = Some true;
  }

let backward =
  {
    name = "backward";
    description = "backward edges: E(x,y) → ∃z E(z,y) (not fwd-existential)";
    rules = rules {| back: E(x,y) -> E(z,y). |};
    instance = inst "E(a,b)";
    e = e2;
    bdd_expected = Some true;
  }

let tangle =
  {
    name = "tangle";
    description =
      "two-cycle heads: E(x,y) → ∃z E(y,z) ∧ E(z,y) (streamlining stress)";
    rules = rules {| tangle: E(x,y) -> E(y,z), E(z,y). |};
    instance = inst "E(a,b)";
    e = e2;
    bdd_expected = Some true;
  }

let ternary =
  {
    name = "ternary";
    description = "ternary rotation: T(x,y,z) → ∃w T(y,z,w) (reify stress)";
    rules = rules {| rot: T(x,y,z) -> T(y,z,w). |};
    instance = inst "T(a,b,c)";
    e = e2;
    bdd_expected = Some true;
  }

let all_pairs =
  {
    name = "all_pairs";
    description =
      "H-elements pairwise E-connected (loops included) with H growing";
    rules =
      rules {| grow: H(x) -> H(y).
               pair: H(x), H(y) -> E(x,y). |};
    instance = inst "H(a)";
    e = e2;
    bdd_expected = Some true;
  }

let guarded =
  {
    name = "guarded";
    description = "guarded-style propagation along a guard atom";
    rules =
      rules {| g: G(x,y), A(x) -> G(y,z), A(y). |};
    instance = inst "G(a,b), A(a)";
    e = Symbol.make "G" 2;
    bdd_expected = None;
  }

let sticky =
  {
    name = "sticky";
    description =
      "sticky join (the join variable survives into the head): \
       R(x,y) ∧ R(y,z) → ∃w S(y,w)";
    rules = rules {| st: R(x,y), R(y,z) -> S(y,w). |};
    instance = inst "R(a,b), R(b,c)";
    e = Symbol.make "R" 2;
    bdd_expected = Some true;
  }

let ucq_defined =
  {
    name = "ucq_defined";
    description =
      "Section 6: E defined by the UCQ R(x,y) ∨ S(y,x) over generated R/S";
    rules =
      rules
        {| gr: R(x,y) -> R(y,z).
           gs: R(x,y) -> S(x,w).
           d1: R(x,y) -> E(x,y).
           d2: S(y,x) -> E(x,y). |};
    instance = inst "R(a,b)";
    e = e2;
    bdd_expected = Some true;
  }

let bidirectional =
  {
    name = "bidirectional";
    description = "two-way successors: E(x,y) → ∃z E(y,z) ∧ ∃w E(w,y)";
    rules =
      rules {| fwd: E(x,y) -> E(y,z).
               bwd: E(x,y) -> E(w,y). |};
    instance = inst "E(a,b)";
    e = e2;
    bdd_expected = Some true;
  }

let two_cycles =
  {
    name = "two_cycles";
    description = "loop seed: the instance already has E(a,a) (degenerate)";
    rules = rules {| succ: E(x,y) -> E(y,z). |};
    instance = inst "E(a,a)";
    e = e2;
    bdd_expected = Some true;
  }

let datalog_star =
  {
    name = "datalog_star";
    description = "non-recursive Datalog: hub H broadcast to E-edges";
    rules =
      rules {| b1: H(x), N(y) -> E(x,y).
               b2: H(x), N(y) -> E(y,x). |};
    instance = inst "H(hub), N(n1), N(n2), N(n3)";
    e = e2;
    bdd_expected = Some true;
  }

let zoo =
  [
    example1;
    example1_bdd;
    short_only;
    succ_only;
    dense;
    inclusion;
    person_knows;
    symmetric;
    fork;
    backward;
    tangle;
    ternary;
    all_pairs;
    guarded;
    sticky;
    ucq_defined;
    bidirectional;
    two_cycles;
    datalog_star;
  ]

let find name = List.find (fun e -> String.equal e.name name) zoo

let pp_entry ppf e =
  Fmt.pf ppf "# %s — %s@." e.name e.description;
  List.iter
    (fun a -> Fmt.pf ppf "%a.@." Atom.pp a)
    (Instance.sorted_atoms e.instance);
  List.iter (fun r -> Fmt.pf ppf "%a.@." Rule.pp r) e.rules

let random_instance ~seed ~constants ~atoms sign =
  let st = Random.State.make [| seed |] in
  let consts =
    Array.init (max 1 constants) (fun i -> Term.cst (Fmt.str "c%d" i))
  in
  let preds =
    (* name order: [List.nth] over this list consumes the seeded random
       stream, so the order must not depend on intern-id order *)
    Symbol.sorted_elements
      (Symbol.Set.filter (fun p -> not (Symbol.equal p Symbol.top)) sign)
  in
  match preds with
  | [] -> Instance.top
  | _ ->
      let pick_pred () = List.nth preds (Random.State.int st (List.length preds)) in
      let pick_const () = consts.(Random.State.int st (Array.length consts)) in
      let rec go n acc =
        if n = 0 then acc
        else
          let p = pick_pred () in
          let args = List.init (Symbol.arity p) (fun _ -> pick_const ()) in
          go (n - 1) (Instance.add (Atom.make p args) acc)
      in
      go atoms Instance.empty

let random_forward_existential_rules ~seed ~rules:n =
  let st = Random.State.make [| seed |] in
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  let e xy = Atom.make e2 xy in
  let a t = Atom.app "A" [ t ] and b t = Atom.app "B" [ t ] in
  (* Linear templates: single-atom bodies, forward-existential heads. *)
  let templates =
    [|
      (fun () -> ([ e [ x; y ] ], [ e [ y; z ] ]));
      (fun () -> ([ e [ x; y ] ], [ e [ x; z ] ]));
      (fun () -> ([ e [ x; y ] ], [ e [ y; x ] ]));
      (fun () -> ([ e [ x; y ] ], [ a x ]));
      (fun () -> ([ e [ x; y ] ], [ a y ]));
      (fun () -> ([ e [ x; y ] ], [ b y ]));
      (fun () -> ([ a x ], [ e [ x; z ] ]));
      (fun () -> ([ b x ], [ e [ x; z ] ]));
      (fun () -> ([ a x ], [ b x ]));
      (fun () -> ([ b x ], [ a x ]));
    |]
  in
  List.init n (fun i ->
      let body, head =
        templates.(Random.State.int st (Array.length templates)) ()
      in
      Rule.make ~name:(Fmt.str "rnd%d" i) body head)
  |> List.sort_uniq (fun r1 r2 ->
         compare
           (List.sort Atom.compare (Rule.body r1),
            List.sort Atom.compare (Rule.head r1))
           (List.sort Atom.compare (Rule.body r2),
            List.sort Atom.compare (Rule.head r2)))

let sample_instances sign =
  [
    Instance.top;
    Instance.critical sign;
    random_instance ~seed:1 ~constants:2 ~atoms:2 sign;
    random_instance ~seed:2 ~constants:3 ~atoms:4 sign;
    random_instance ~seed:3 ~constants:4 ~atoms:6 sign;
  ]
