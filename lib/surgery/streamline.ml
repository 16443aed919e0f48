open Nca_logic

(* The fresh predicate family of a rule, deterministic in the rule name. *)
type names = {
  a0 : Symbol.t;
  a_of : Term.t -> Symbol.t;  (* [A^ρ_{y,w}] for frontier variable [y] *)
  b_of : Term.t -> Term.t -> Symbol.t;  (* [B^ρ_{y',z}] *)
}

let term_label t =
  match t with
  | Term.Var v | Term.Cst v -> Names.name v
  | Term.Null n -> Fmt.str "n%d" n

let names_for r =
  let base = Rule.name r in
  {
    a0 = Symbol.make (Fmt.str "NA0#%s" base) 1;
    a_of = (fun y -> Symbol.make (Fmt.str "NA#%s#%s" base (term_label y)) 2);
    b_of =
      (fun y' z ->
        Symbol.make
          (Fmt.str "NB#%s#%s#%s" base (term_label y') (term_label z))
          2);
  }

let fresh_w r =
  let used = Term.Set.union (Rule.body_vars r) (Rule.head_vars r) in
  let rec pick i =
    let candidate = Term.var (if i = 0 then "w" else Fmt.str "w%d" i) in
    if Term.Set.mem candidate used then pick (i + 1) else candidate
  in
  pick 0

let of_rule r =
  if Rule.is_datalog r then [ r ]
  else begin
    let names = names_for r in
    let w = fresh_w r in
    (* name order: the generated NA#/NB# symbol names and the atom order
       of the produced rules must not depend on intern-id order *)
    let frontier = Term.sorted_elements (Rule.frontier r) in
    let exist = Term.sorted_elements (Rule.exist_vars r) in
    let a_atoms =
      Atom.make names.a0 [ w ]
      :: List.map (fun y -> Atom.make (names.a_of y) [ y; w ]) frontier
    in
    let b_atoms =
      List.concat_map
        (fun y' -> List.map (fun z -> Atom.make (names.b_of y' z) [ y'; z ]) exist)
        (frontier @ [ w ])
    in
    [
      Rule.make ~name:(Rule.name r ^ "_init") (Rule.body r) a_atoms;
      Rule.make ~name:(Rule.name r ^ "_ex") a_atoms b_atoms;
      Rule.make ~name:(Rule.name r ^ "_dl") b_atoms (Rule.head r);
    ]
  end

let apply rules = List.concat_map of_rule rules
let original_signature rules = Rule.signature rules
