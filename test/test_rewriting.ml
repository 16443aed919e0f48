open Nca_logic
module Rewrite = Nca_rewriting.Rewrite
module Piece = Nca_rewriting.Piece
module Injective = Nca_rewriting.Injective
module Bdd = Nca_rewriting.Bdd

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let e2 = Symbol.make "E" 2
let eq = Cq.atom_query e2

(* ------------------------------------------------------------------ *)
(* Piece unifiers *)

let test_piece_datalog_step () =
  (* E(x,y) -> E(y,x): rewriting E(x0,x1) gives E(x1,x0) *)
  let rule = Parser.rule "E(x,y) -> E(y,x)" in
  let results = Piece.rewrite_step rule eq in
  check_int "one rewriting" 1 (List.length results);
  let flipped =
    Cq.make
      ~answer:[ Term.var "x0"; Term.var "x1" ]
      [ Atom.make e2 [ Term.var "x1"; Term.var "x0" ] ]
  in
  check "flipped query" true
    (List.exists (fun q -> Cq.equivalent q flipped) results)

let test_piece_existential_blocked_by_answer () =
  (* E(x,y) -> ∃z E(y,z): unifying E(x0,x1) with E(y,z) maps the answer
     variable x1 to the existential z — forbidden *)
  let rule = Parser.rule "E(x,y) -> E(y,z)" in
  check_int "no rewriting" 0 (List.length (Piece.rewrite_step rule eq))

let test_piece_existential_allowed_boolean () =
  (* same rule against the Boolean query ∃u,v E(u,v): now allowed,
     producing body E(x,y) (the rule's own body) *)
  let rule = Parser.rule "E(x,y) -> E(y,z)" in
  let q = Cq.boolean [ Atom.app "E" [ Term.var "u"; Term.var "v" ] ] in
  let results = Piece.rewrite_step rule q in
  check "one-step rewriting exists" true (List.length results >= 1);
  check "body is an E edge" true
    (List.exists
       (fun q' -> Cq.equivalent q' (Cq.boolean [ Atom.app "E" [ Term.var "s"; Term.var "t" ] ]))
       results)

let test_piece_shared_existential_needs_both_atoms () =
  (* rule A(x) -> ∃z D(x,z) ∧ E(x,z); query ∃u,v,w D(u,w) ∧ E(v,w):
     w unifies with z, and both atoms must join the piece, forcing u = v *)
  let rule = Parser.rule "A(x) -> D(x,z), E(x,z)" in
  let q =
    Cq.boolean
      [
        Atom.app "D" [ Term.var "u"; Term.var "w" ];
        Atom.app "E" [ Term.var "v"; Term.var "w" ];
      ]
  in
  let results = Piece.rewrite_step rule q in
  check "rewriting exists" true (results <> []);
  check "some rewriting is just A" true
    (List.exists
       (fun q' ->
         Cq.equivalent q' (Cq.boolean [ Atom.app "A" [ Term.var "u" ] ]))
       results)

let test_piece_partial_piece_blocked () =
  (* same rule, but v is used elsewhere: E(v,w) with w existential and v
     also in F(v) outside the piece is fine — v is not in the existential
     class; but w occurring outside the piece blocks it *)
  let rule = Parser.rule "A(x) -> D(x,z), E(x,z)" in
  let q =
    Cq.boolean
      [
        Atom.app "D" [ Term.var "u"; Term.var "w" ];
        Atom.app "E" [ Term.var "v"; Term.var "w" ];
        Atom.app "F" [ Term.var "w" ];
      ]
  in
  check_int "w escapes the piece: no rewriting" 0
    (List.length (Piece.rewrite_step rule q))

let test_piece_frontier_existential_clash () =
  (* rule E(x,y) -> ∃z E(x,z): query E(u,u) forces z ≡ x — a frontier
     variable in an existential class, forbidden *)
  let rule = Parser.rule "E(x,y) -> E(x,z)" in
  let q = Cq.boolean [ Atom.app "E" [ Term.var "u"; Term.var "u" ] ] in
  check_int "no rewriting" 0 (List.length (Piece.rewrite_step rule q))

let test_piece_rejects_constants () =
  let rule = Parser.rule "E(x,y) -> E(y,z)" in
  let q = Cq.boolean [ Atom.app "E" [ Term.cst "a"; Term.var "v" ] ] in
  check "constants rejected" true
    (try
       ignore (Piece.rewrite_step rule q);
       false
     with Invalid_argument _ -> true)

let test_piece_multi_atom_identification () =
  (* two query atoms unified with the same head atom identify variables *)
  let rule = Parser.rule "A(x) -> E(x,z)" in
  let q =
    Cq.boolean
      [
        Atom.app "E" [ Term.var "u"; Term.var "w" ];
        Atom.app "E" [ Term.var "v"; Term.var "w" ];
      ]
  in
  let results = Piece.rewrite_step rule q in
  check "aggregated piece produces A(u) with u=v" true
    (List.exists
       (fun q' ->
         Cq.equivalent q' (Cq.boolean [ Atom.app "A" [ Term.var "u" ] ]))
       results)

(* ------------------------------------------------------------------ *)
(* Fixpoint rewriting *)

let test_rewrite_example1_bdd () =
  let out = Rewrite.rewrite (Nca_core.Rulesets.example1_bdd).rules eq in
  check "complete" true out.complete;
  check "small rewriting" true (Ucq.size out.ucq <= 4);
  (* the rewriting must recognize E(a,b) databases *)
  check "holds on a concrete edge" true
    (Ucq.holds
       ~tuple:[ Term.cst "a"; Term.cst "b" ]
       (Parser.instance "E(a,b)") out.ucq)

let test_rewrite_example1_diverges () =
  let out =
    Rewrite.rewrite ~max_rounds:8 (Nca_core.Rulesets.example1).rules eq
  in
  check "not complete (not bdd)" false out.complete;
  check "keeps generating" true (Ucq.size out.ucq > 5)

let test_rewrite_datalog_symmetric () =
  let out = Rewrite.rewrite (Nca_core.Rulesets.symmetric).rules eq in
  check "complete" true out.complete;
  check_int "E(x,y) ∨ E(y,x)" 2 (Ucq.size out.ucq);
  check_int "one round" 1 out.rounds

let test_rewrite_trivial_for_dense () =
  let out = Rewrite.rewrite (Nca_core.Rulesets.dense).rules eq in
  check "complete" true out.complete;
  check_int "identity only" 1 (Ucq.size out.ucq)

let test_rewrite_person_knows () =
  let rules = (Nca_core.Rulesets.person_knows).rules in
  let person = Cq.atom_query (Symbol.make "Person" 1) in
  let out = Rewrite.rewrite rules person in
  check "complete" true out.complete;
  check_int "Person(x) ∨ Knows(_,x)" 2 (Ucq.size out.ucq)

let test_rewrite_equivalence_on_database () =
  (* Definition 2 checked concretely: I ⊨ Q iff Ch(I,R) ⊨ q *)
  let rules = (Nca_core.Rulesets.example1_bdd).rules in
  let out = Rewrite.rewrite rules eq in
  List.iter
    (fun src ->
      let i = Parser.instance src in
      let chase = Nca_chase.Chase.run ~max_depth:6 i rules in
      List.iter
        (fun tuple ->
          let lhs = Cq.holds ~tuple chase.Nca_chase.Chase.instance eq in
          let rhs = Ucq.holds ~tuple i out.ucq in
          (* the chase is truncated, so lhs ⟹ rhs must hold exactly on
             saturated prefixes; here rule growth only adds new terms, so
             tuples over the database stabilize early *)
          check (Fmt.str "agree on %s" src) true (lhs = rhs))
        [ [ Term.cst "a"; Term.cst "b" ]; [ Term.cst "b"; Term.cst "a" ] ])
    [ "E(a,b)"; "E(b,a)"; "E(a,b), E(b,a)"; "F(a,b)" ]

let test_rewrite_ucq_composition () =
  (* Lemma 5-flavored: rewriting a UCQ is rewriting its disjuncts *)
  let rules = (Nca_core.Rulesets.symmetric).rules in
  let u = Ucq.make [ eq ] in
  let out = Rewrite.rewrite_ucq rules u in
  check "complete" true out.complete;
  check_int "two disjuncts" 2 (Ucq.size out.ucq)

(* ------------------------------------------------------------------ *)
(* bdd verdicts *)

let test_bdd_zoo_classification () =
  List.iter
    (fun (entry : Nca_core.Rulesets.entry) ->
      match entry.bdd_expected with
      | None -> ()
      | Some expected ->
          let verdicts =
            Bdd.for_signature ~max_rounds:8 entry.rules
              (Rule.signature entry.rules)
          in
          check
            (Fmt.str "%s bdd=%b" entry.name expected)
            expected (Bdd.certified verdicts))
    Nca_core.Rulesets.zoo

let test_bdd_constant_bounds () =
  let v = Bdd.for_query (Nca_core.Rulesets.example1_bdd).rules eq in
  (match v.constant with
  | None -> Alcotest.fail "expected a bdd constant"
  | Some k -> check "small constant" true (k <= 4));
  let v1 = Bdd.for_query ~max_rounds:6 (Nca_core.Rulesets.example1).rules eq in
  check "no constant for transitivity" true (v1.constant = None)

let test_bdd_cross_validation () =
  let rules = (Nca_core.Rulesets.example1_bdd).rules in
  let v = Bdd.for_query rules eq in
  let samples =
    List.map Parser.instance
      [ "E(a,b)"; "E(a,a)"; "E(a,b), E(b,c)"; "E(a,b), E(c,d)" ]
  in
  check "cross validation passes" true
    (Bdd.cross_validate rules eq v.rewriting samples)

(* ------------------------------------------------------------------ *)
(* Injective rewritings (Prop. 6) *)

let test_specializations_count () =
  (* E(x0,x1) has 2 variables: 2 partitions *)
  check_int "two specializations" 2 (List.length (Injective.specializations eq));
  let q = Cq.boolean [ Atom.app "E" [ Term.var "u"; Term.var "v" ] ] in
  check_int "boolean edge also 2" 2 (List.length (Injective.specializations q))

let test_specializations_bell () =
  let q =
    Cq.boolean
      [
        Atom.app "E" [ Term.var "u"; Term.var "v" ];
        Atom.app "E" [ Term.var "v"; Term.var "w" ];
      ]
  in
  (* 3 variables: Bell(3) = 5 partitions *)
  check_int "Bell(3)" 5 (List.length (Injective.specializations q))

let test_specializations_identity_first () =
  match Injective.specializations eq with
  | first :: _ -> check "identity first" true (Cq.equivalent first eq)
  | [] -> Alcotest.fail "no specializations"

let test_injective_prop6 () =
  (* Proposition 6: I ⊨ Q iff some disjunct of Q_inj holds injectively *)
  let u = Ucq.make [ eq ] in
  let u_inj = Injective.of_ucq u in
  List.iter
    (fun src ->
      let i = Parser.instance src in
      List.iter
        (fun tuple ->
          let plain = Ucq.holds ~tuple i u in
          let inj =
            List.exists (fun q -> Cq.holds_inj ~tuple i q)
              (Ucq.disjuncts u_inj)
          in
          check (Fmt.str "Prop 6 on %s" src) plain inj)
        [
          [ Term.cst "a"; Term.cst "b" ];
          [ Term.cst "a"; Term.cst "a" ];
          [ Term.cst "b"; Term.cst "b" ];
        ])
    [ "E(a,b)"; "E(a,a)"; "E(a,b), E(b,b)" ]

let test_iso_cq () =
  let q1 = Cq.boolean [ Atom.app "E" [ Term.var "u"; Term.var "v" ] ] in
  let q2 = Cq.boolean [ Atom.app "E" [ Term.var "s"; Term.var "t" ] ] in
  check "renamed CQs isomorphic" true (Injective.iso_cq q1 q2);
  let q3 = Cq.boolean [ Atom.app "E" [ Term.var "u"; Term.var "u" ] ] in
  check "loop not isomorphic to edge" false (Injective.iso_cq q1 q3);
  (* equivalent but not isomorphic *)
  let q4 =
    Cq.boolean
      [
        Atom.app "E" [ Term.var "u"; Term.var "v" ];
        Atom.app "E" [ Term.var "u"; Term.var "w" ];
      ]
  in
  check "equivalent" true (Cq.equivalent q1 q4);
  check "but not isomorphic" false (Injective.iso_cq q1 q4)

let test_injective_rewriting_end_to_end () =
  let out =
    Injective.injective_rewriting (Nca_core.Rulesets.example1_bdd).rules eq
  in
  check "complete" true out.complete;
  check "specializations expand the UCQ" true (Ucq.size out.ucq >= 2);
  check "holds injectively on loop database" true
    (List.exists
       (fun q -> Cq.holds_inj ~tuple:[ Term.cst "a"; Term.cst "a" ]
           (Parser.instance "E(a,a)") q)
       (Ucq.disjuncts out.ucq))

(* [iso_cq]'s answer map need not be injective, so the relation is not
   symmetric: here x0 and x1 both map to x0, and the body maps
   injectively on the remaining variable. *)
let test_iso_cq_not_symmetric () =
  let v = Term.var in
  let e a b = Atom.make e2 [ v a; v b ] in
  let q = Cq.make ~answer:[ v "x0"; v "x1" ] [ e "x0" "x0"; e "x0" "x1" ] in
  let q' = Cq.make ~answer:[ v "x0"; v "x0" ] [ e "v" "x0"; e "x0" "x0" ] in
  check "q into q'" true (Injective.iso_cq q q');
  check "q' into q" false (Injective.iso_cq q' q)

(* The quadratic dedup [of_ucq] used to run, kept as the reference: every
   specialization is tested against every disjunct kept so far, each test
   rebuilding both bodies as instances. *)
let reference_iso q q' =
  Cq.size q = Cq.size q'
  && List.length (Cq.answer q) = List.length (Cq.answer q')
  && Term.Set.cardinal (Cq.vars q) = Term.Set.cardinal (Cq.vars q')
  &&
  let init =
    List.fold_left2
      (fun acc x y ->
        match acc with
        | None -> None
        | Some s -> (
            match Subst.find_opt x s with
            | Some y' -> if Term.equal y y' then acc else None
            | None -> Some (Subst.add x y s)))
      (Some Subst.empty) (Cq.answer q) (Cq.answer q')
  in
  match init with
  | None -> false
  | Some init ->
      let target = Instance.of_list (Cq.body q') in
      Instance.cardinal (Instance.of_list (Cq.body q))
      = Instance.cardinal target
      && Hom.exists ~inj:true ~init (Cq.body q) target

let reference_of_ucq u =
  let rec dedup acc = function
    | [] -> List.rev acc
    | q :: rest ->
        if List.exists (reference_iso q) acc then dedup acc rest
        else dedup (q :: acc) rest
  in
  Ucq.make
    (dedup [] (List.concat_map Injective.specializations (Ucq.disjuncts u)))

let same_disjuncts a b =
  List.equal (fun q q' -> Cq.compare q q' = 0) (Ucq.disjuncts a)
    (Ucq.disjuncts b)

(* [Q_⊠] as the Section-5 analysis builds it: the rewriting of E(x,y)
   under example1_bdd's regalized rule set. *)
let test_of_ucq_reference_example1_bdd () =
  let entry = Nca_core.Rulesets.example1_bdd in
  let regalized = Nca_surgery.Pipeline.regalize entry.instance entry.rules in
  let out = Rewrite.rewrite regalized.final eq in
  check_int "specializations" 2710
    (List.length
       (List.concat_map Injective.specializations (Ucq.disjuncts out.ucq)));
  let got = Injective.of_ucq out.ucq in
  check_int "disjuncts kept" 2060 (Ucq.size got);
  check "same disjuncts, same order" true
    (same_disjuncts (reference_of_ucq out.ucq) got)

(* ------------------------------------------------------------------ *)
(* Properties *)

let linear_rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed ->
          Nca_core.Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_range 0 5000))

let prop_linear_rules_bdd =
  QCheck.Test.make ~name:"random linear rule sets are bdd" ~count:25
    linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      Bdd.certified
        (Bdd.for_signature ~max_rounds:10 rules (Rule.signature rules)))

let prop_rewriting_sound =
  QCheck.Test.make ~name:"every disjunct entails the query on the chase"
    ~count:20 linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let out = Rewrite.rewrite ~max_rounds:8 rules eq in
      (* soundness: if a disjunct holds on I, the chase of I entails q;
         we test on the disjunct's own body as the database (frozen). *)
      List.for_all
        (fun disjunct ->
          let frozen =
            let renaming =
              Term.Set.fold
                (fun v acc ->
                  Subst.add v (Term.cst ("k_" ^ Fmt.str "%a" Term.pp v)) acc)
                (Cq.vars disjunct) Subst.empty
            in
            Instance.of_list (Subst.apply_atoms renaming (Cq.body disjunct))
          in
          let chase = Nca_chase.Chase.run ~max_depth:6 frozen rules in
          Cq.holds chase.Nca_chase.Chase.instance eq)
        (Ucq.disjuncts out.ucq))

let prop_specializations_preserve_plain_semantics =
  QCheck.Test.make ~name:"specializations union ≡ original (plain semantics)"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed ->
             Nca_core.Rulesets.random_instance ~seed ~constants:3 ~atoms:4
               (Symbol.Set.singleton e2))
           (int_range 0 5000)))
    (fun i ->
      let q =
        Cq.boolean
          [
            Atom.app "E" [ Term.var "u"; Term.var "v" ];
            Atom.app "E" [ Term.var "v"; Term.var "w" ];
          ]
      in
      let specs = Injective.specializations q in
      Cq.holds i q = List.exists (fun s -> Cq.holds i s) specs)

let prop_injective_iff_plain =
  QCheck.Test.make ~name:"Prop 6 on random instances" ~count:40
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed ->
             Nca_core.Rulesets.random_instance ~seed ~constants:3 ~atoms:5
               (Symbol.Set.singleton e2))
           (int_range 0 5000)))
    (fun i ->
      let q =
        Cq.boolean
          [
            Atom.app "E" [ Term.var "u"; Term.var "v" ];
            Atom.app "E" [ Term.var "v"; Term.var "w" ];
          ]
      in
      let u = Ucq.make [ q ] in
      let u_inj = Injective.of_ucq u in
      Ucq.holds i u
      = List.exists (fun s -> Cq.holds_inj i s) (Ucq.disjuncts u_inj))

(* Small UCQs over E/2 and A/1 with up to four variables; answer
   variables are drawn with repetition. *)
let random_ucq seed =
  let st = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let vars = List.map Term.var [ "x"; "y"; "z"; "w" ] in
  let atom () =
    if Random.State.int st 4 = 0 then Atom.app "A" [ pick vars ]
    else Atom.make e2 [ pick vars; pick vars ]
  in
  let arity = Random.State.int st 3 in
  let cq () =
    let body = List.init (1 + Random.State.int st 3) (fun _ -> atom ()) in
    let body_vars = Term.Set.elements (Atom.vars_of_list body) in
    Cq.make ~answer:(List.init arity (fun _ -> pick body_vars)) body
  in
  Ucq.make (List.init (1 + Random.State.int st 3) (fun _ -> cq ()))

let prop_of_ucq_matches_reference =
  QCheck.Test.make ~name:"of_ucq = quadratic reference dedup" ~count:300
    (QCheck.make ~print:(fun seed -> Fmt.str "%a" Ucq.pp (random_ucq seed))
       QCheck.Gen.(int_range 0 100_000))
    (fun seed ->
      let u = random_ucq seed in
      same_disjuncts (reference_of_ucq u) (Injective.of_ucq u))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_of_ucq_matches_reference;
      prop_linear_rules_bdd;
      prop_rewriting_sound;
      prop_specializations_preserve_plain_semantics;
      prop_injective_iff_plain;
    ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "rewriting"
    [
      ( "piece",
        [
          tc "datalog step" test_piece_datalog_step;
          tc "existential blocked by answer" test_piece_existential_blocked_by_answer;
          tc "existential allowed boolean" test_piece_existential_allowed_boolean;
          tc "shared existential aggregates" test_piece_shared_existential_needs_both_atoms;
          tc "escaping variable blocks" test_piece_partial_piece_blocked;
          tc "frontier-existential clash" test_piece_frontier_existential_clash;
          tc "constants rejected" test_piece_rejects_constants;
          tc "multi-atom identification" test_piece_multi_atom_identification;
        ] );
      ( "rewrite",
        [
          tc "example1_bdd" test_rewrite_example1_bdd;
          tc "example1 diverges" test_rewrite_example1_diverges;
          tc "symmetric datalog" test_rewrite_datalog_symmetric;
          tc "dense trivial" test_rewrite_trivial_for_dense;
          tc "person/knows" test_rewrite_person_knows;
          tc "agrees with chase" test_rewrite_equivalence_on_database;
          tc "ucq composition" test_rewrite_ucq_composition;
        ] );
      ( "bdd",
        [
          tc "zoo classification" test_bdd_zoo_classification;
          tc "constants" test_bdd_constant_bounds;
          tc "cross validation" test_bdd_cross_validation;
        ] );
      ( "injective",
        [
          tc "specializations count" test_specializations_count;
          tc "bell numbers" test_specializations_bell;
          tc "identity first" test_specializations_identity_first;
          tc "proposition 6" test_injective_prop6;
          tc "cq isomorphism" test_iso_cq;
          tc "cq isomorphism is not symmetric" test_iso_cq_not_symmetric;
          tc "of_ucq = reference on example1_bdd"
            test_of_ucq_reference_example1_bdd;
          tc "end to end" test_injective_rewriting_end_to_end;
        ] );
      ("properties", props);
    ]
