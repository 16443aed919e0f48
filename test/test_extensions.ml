(* Tests for the substrate extensions: weak acyclicity, syntactic class
   checkers, the restricted chase variant, and the bounded finite-model
   search that makes the fc side of the conjecture executable. *)

open Nca_logic
module Chase = Nca_chase.Chase
module Acyclicity = Nca_chase.Acyclicity
module Finite_model = Nca_chase.Finite_model
module Fm_check = Nca_chase.Fm_check
module Classes = Nca_surgery.Classes
module Rulesets = Nca_core.Rulesets

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let e2 = Symbol.make "E" 2

(* ------------------------------------------------------------------ *)
(* Weak acyclicity *)

let test_wa_datalog () =
  check "datalog always weakly acyclic" true
    (Acyclicity.is_weakly_acyclic
       (Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)."))

let test_wa_successor () =
  (* E(x,y) -> ∃z E(y,z): special edge E.1 ⇒ E.1 (self-cycle) *)
  check "successor not weakly acyclic" false
    (Acyclicity.is_weakly_acyclic (Parser.parse_rules "s: E(x,y) -> E(y,z)."))

let test_wa_stratified () =
  (* A feeds B, B never feeds back: weakly acyclic *)
  check "stratified existential" true
    (Acyclicity.is_weakly_acyclic
       (Parser.parse_rules "r: A(x) -> B(x,y). s: B(x,y) -> C(y)."))

let test_wa_cycle_via_datalog () =
  (* the special edge's target flows back through a Datalog rule *)
  check "cycle through datalog" false
    (Acyclicity.is_weakly_acyclic
       (Parser.parse_rules "r: A(x) -> B(x,y). s: B(x,y) -> A(y)."))

let test_wa_certificate () =
  let rules = Parser.parse_rules "s: E(x,y) -> E(y,z)." in
  match Acyclicity.offending_cycle rules with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle -> check "non-empty certificate" true (cycle <> [])

let test_wa_terminating_chase () =
  (* weakly acyclic ⟹ the chase saturates *)
  let rules = Parser.parse_rules "r: A(x) -> B(x,y). s: B(x,y) -> C(y)." in
  check "weakly acyclic" true (Acyclicity.is_weakly_acyclic rules);
  let c = Chase.run ~max_depth:20 (Parser.instance "A(a)") rules in
  check "chase saturates" true c.saturated

let test_wa_dependency_edges () =
  let rules = Parser.parse_rules "s: E(x,y) -> E(y,z)." in
  let edges = Acyclicity.dependency_graph rules in
  check "has a regular edge" true
    (List.exists (fun e -> not e.Acyclicity.special) edges);
  check "has a special edge" true
    (List.exists (fun e -> e.Acyclicity.special) edges)

(* ------------------------------------------------------------------ *)
(* Syntactic classes *)

let test_linear () =
  check "successor linear" true
    (Classes.is_linear Rulesets.succ_only.rules);
  check "transitivity not linear" false
    (Classes.is_linear Rulesets.example1.rules)

let test_guarded () =
  check "single-atom bodies are guarded" true
    (Classes.is_guarded Rulesets.succ_only.rules);
  check "transitivity join is not guarded" false
    (Classes.is_guarded (Parser.parse_rules "t: E(x,y), E(y,z) -> E(x,z)."));
  check "guard atom covering all variables" true
    (Classes.is_guarded
       (Parser.parse_rules "g: G(x,y), A(x) -> B(y)."))

let test_frontier_guarded () =
  (* transitivity: frontier {x,z}, no body atom contains both *)
  check "transitivity not frontier-guarded" false
    (Classes.is_frontier_guarded
       (Parser.parse_rules "t: E(x,y), E(y,z) -> E(x,z)."));
  (* two-hop: E(x,x1),E(y,y1) -> E(x,y1): frontier {x,y1} split *)
  check "two-hop not frontier-guarded" false
    (Classes.is_frontier_guarded Rulesets.short_only.rules);
  check "same-atom frontier is" true
    (Classes.is_frontier_guarded
       (Parser.parse_rules "r: E(x,y), A(x) -> F(x,y)."))

let test_sticky () =
  (* the classical sticky failure: transitivity repeats the join variable
     y, which is marked because it misses the head *)
  check "transitivity not sticky" false
    (Classes.is_sticky (Parser.parse_rules "t: E(x,y), E(y,z) -> E(x,z)."));
  check "two-hop rule is sticky" true
    (Classes.is_sticky Rulesets.short_only.rules);
  check "linear sets are sticky" true
    (Classes.is_sticky Rulesets.succ_only.rules);
  (* join variable kept in the head: sticky *)
  check "join kept in head" true
    (Classes.is_sticky (Parser.parse_rules "t: E(x,y), F(y,z) -> G(x,y,z)."))

let test_sticky_propagation () =
  (* marking propagates backwards through head positions: in the second
     rule, z sits (in the head) at position F.1 which the first rule
     marks, so z becomes marked in the body where it occurs twice *)
  let rules =
    Parser.parse_rules
      {| a: F(x,y) -> G(x).
         b: E(z,z) -> F(w,z). |}
  in
  check "marked positions include F.1" true
    (List.exists
       (fun (p, i) -> Symbol.name p = "F" && i = 1)
       (Classes.marked_positions rules));
  check "propagated marking breaks stickiness" false (Classes.is_sticky rules)

let test_classify_zoo () =
  let c = Classes.classify Rulesets.example1.rules in
  check "example1 not sticky" false c.sticky;
  check "example1 not weakly acyclic" false c.weakly_acyclic;
  let c2 = Classes.classify Rulesets.succ_only.rules in
  check "succ linear" true c2.linear;
  check "succ guarded" true c2.guarded;
  check "succ sticky" true c2.sticky;
  check "succ not weakly acyclic" false c2.weakly_acyclic

let test_classes_imply_bdd () =
  (* linear and sticky zoo entries must be certified bdd by the engine *)
  List.iter
    (fun (entry : Rulesets.entry) ->
      let c = Classes.classify entry.rules in
      if c.linear || c.sticky then
        check (entry.name ^ " class ⟹ bdd") true
          (Nca_rewriting.Bdd.certified
             (Nca_rewriting.Bdd.for_signature ~max_rounds:8 entry.rules
                (Rule.signature entry.rules))))
    Rulesets.zoo

(* ------------------------------------------------------------------ *)
(* Restricted chase *)

let test_restricted_smaller () =
  let entry = Rulesets.example1_bdd in
  let obl = Chase.run ~max_depth:4 entry.instance entry.rules in
  let res =
    Chase.run ~variant:Chase.Restricted ~max_depth:4 entry.instance
      entry.rules
  in
  check "restricted no larger" true
    (Instance.cardinal res.instance <= Instance.cardinal obl.instance)

let test_restricted_equivalent () =
  (* both chases are universal: homomorphically equivalent prefixes *)
  List.iter
    (fun name ->
      let entry = Rulesets.find name in
      let obl = Chase.run ~max_depth:3 entry.instance entry.rules in
      let res =
        Chase.run ~variant:Chase.Restricted ~max_depth:4 entry.instance
          entry.rules
      in
      check (name ^ ": oblivious → restricted") true
        (Hom.exists (Instance.atoms obl.instance) res.instance
         (* restricted may lag a level when skipping satisfied triggers *)
        ||
        let res_deep =
          Chase.run ~variant:Chase.Restricted ~max_depth:6 entry.instance
            entry.rules
        in
        Hom.exists (Instance.atoms obl.instance) res_deep.instance);
      check (name ^ ": restricted ⊆ deeper oblivious") true
        (let obl_deep = Chase.run ~max_depth:5 entry.instance entry.rules in
         Hom.exists
           (Instance.atoms (Chase.level res 3))
           obl_deep.instance))
    [ "example1_bdd"; "dense"; "symmetric" ]

let test_restricted_saturates_on_satisfied () =
  (* E(a,b),E(b,c) with rule E(x,y) -> ∃z E(y,z): the (a,b) trigger is
     already satisfied by E(b,c); the restricted chase only extends c *)
  let rules = Parser.parse_rules "s: E(x,y) -> E(y,z)." in
  let i = Parser.instance "E(a,b), E(b,c)" in
  let obl = Chase.run ~max_depth:1 i rules in
  let res = Chase.run ~variant:Chase.Restricted ~max_depth:1 i rules in
  check_int "oblivious adds two atoms" 4 (Instance.cardinal obl.instance);
  check_int "restricted adds one" 3 (Instance.cardinal res.instance)

let test_semi_oblivious_between () =
  (* semi-oblivious identifies triggers with equal frontier images, so it
     sits between oblivious and restricted in size *)
  List.iter
    (fun name ->
      let entry = Rulesets.find name in
      let atoms variant =
        Instance.cardinal
          (Chase.run ~variant ~max_depth:4 entry.instance entry.rules)
            .instance
      in
      let obl = atoms Chase.Oblivious in
      let semi = atoms Chase.Semi_oblivious in
      check (name ^ ": semi ≤ oblivious") true (semi <= obl))
    [ "example1_bdd"; "tangle"; "dense"; "succ_only" ]

let test_semi_oblivious_collapses_nonfrontier () =
  (* rule with a non-frontier body variable: E(x,y) -> ∃z F(y,z); the two
     bodies E(a,b), E(c,b) share the frontier image {y↦b}: one firing *)
  let rules = Parser.parse_rules "r: E(x,y) -> F(y,z)." in
  let i = Parser.instance "E(a,b), E(c,b)" in
  let obl = Chase.run ~max_depth:1 i rules in
  let semi = Chase.run ~variant:Chase.Semi_oblivious ~max_depth:1 i rules in
  check_int "oblivious fires twice" 4 (Instance.cardinal obl.instance);
  check_int "semi-oblivious fires once" 3 (Instance.cardinal semi.instance)

let test_semi_oblivious_universal () =
  let entry = Rulesets.example1_bdd in
  let obl = Chase.run ~max_depth:3 entry.instance entry.rules in
  let semi =
    Chase.run ~variant:Chase.Semi_oblivious ~max_depth:4 entry.instance
      entry.rules
  in
  check "oblivious maps into semi-oblivious" true
    (Hom.exists (Instance.atoms obl.instance) semi.instance)

let test_restricted_loop_detection_agrees () =
  let entry = Rulesets.example1_bdd in
  let res =
    Chase.run ~variant:Chase.Restricted ~max_depth:4 entry.instance
      entry.rules
  in
  check "loop also found by restricted chase" true
    (Cq.holds res.instance (Cq.loop_query e2))

(* ------------------------------------------------------------------ *)
(* Finite models *)

(* [m] is a model of [start] and [rules] *)
let is_model ?(start = Instance.empty) m rules =
  Fm_check.check ~start ~rules m = Ok ()

let test_is_model () =
  let rules = Parser.parse_rules "sym: E(x,y) -> E(y,x)." in
  check "asymmetric edge is no model" false
    (is_model (Parser.instance "E(a,b)") rules);
  check "symmetric pair is" true
    (is_model (Parser.instance "E(a,b), E(b,a)") rules)

let test_violations () =
  let rules = Parser.parse_rules "sym: E(x,y) -> E(y,x)." in
  check_int "one violation" 1
    (List.length (Fm_check.violations (Parser.instance "E(a,b)") rules));
  check_int "none on a model" 0
    (List.length (Fm_check.violations (Parser.instance "E(a,a)") rules))

let test_search_finds_model () =
  let entry = Rulesets.example1 in
  match Finite_model.search ~fresh:1 entry.instance entry.rules with
  | Model m ->
      check "search result is a model" true
        (is_model ~start:entry.instance m entry.rules);
      check "the model has a loop" true (Cq.holds m (Cq.loop_query e2))
  | No_model | Exhausted _ -> Alcotest.fail "expected a finite model"

let test_example1_not_fc_witness () =
  (* no loop-free finite model at any small budget, yet the chase is
     loop-free: the two semantics diverge *)
  List.iter
    (fun fresh ->
      match
        Finite_model.loop_free_model_exists ~fresh ~e:e2
          Rulesets.example1.instance Rulesets.example1.rules
      with
      | Finite_model.Absent ->
          check (Fmt.str "no loop-free finite model (+%d)" fresh) true true
      | Finite_model.Exists ->
          Alcotest.fail "found a loop-free finite model"
      | Finite_model.Unknown _ -> Alcotest.fail "budget exhausted")
    [ 0; 1; 2 ];
  let chase =
    Chase.run ~max_depth:5 Rulesets.example1.instance Rulesets.example1.rules
  in
  check "chase (unrestricted side) loop-free" false
    (Cq.holds chase.instance (Cq.loop_query e2))

let test_symmetric_has_loop_free_model () =
  check "symmetric closure has a loop-free finite model" true
    (Finite_model.loop_free_model_exists ~fresh:0 ~e:e2
       Rulesets.symmetric.instance Rulesets.symmetric.rules
    = Finite_model.Exists)

let test_forbid_respected () =
  (* forbidding E(x,y) entirely: E(a,b) itself violates it *)
  let q = Cq.boolean [ Atom.app "E" [ Term.var "x"; Term.var "y" ] ] in
  check "start violating forbid" true
    (Finite_model.search ~forbid:q (Parser.instance "E(a,b)") []
    = Finite_model.No_model)

let test_search_negative_fresh () =
  Alcotest.check_raises "fresh < 0 is rejected"
    (Invalid_argument "Finite_model.search: fresh < 0") (fun () ->
      ignore
        (Finite_model.search ~fresh:(-1) Rulesets.example1.instance
           Rulesets.example1.rules))

let test_search_empty_rules () =
  match Finite_model.search (Parser.instance "E(a,b)") [] with
  | Model m -> check "instance is its own model" true
      (Instance.equal m (Parser.instance "E(a,b)"))
  | No_model | Exhausted _ -> Alcotest.fail "expected the instance back"

let test_succ_only_needs_cycle () =
  (* E(x,y) → ∃z E(y,z) has loop-free finite models: a cycle through a
     fresh element *)
  check "successor has a loop-free finite model" true
    (Finite_model.loop_free_model_exists ~fresh:1 ~e:e2
       Rulesets.succ_only.instance Rulesets.succ_only.rules
    = Finite_model.Exists)

let test_chase_maps_into_finite_models () =
  (* universality made concrete: the chase prefix maps homomorphically
     into every finite model the bounded search produces *)
  List.iter
    (fun name ->
      let entry = Rulesets.find name in
      match Finite_model.search ~fresh:1 entry.instance entry.rules with
      | Model m ->
          let chase =
            Chase.run ~max_depth:3 entry.instance entry.rules
          in
          check (name ^ ": chase → finite model") true
            (Hom.exists (Instance.atoms chase.instance) m)
      | No_model | Exhausted _ -> ())
    [ "example1"; "example1_bdd"; "symmetric"; "succ_only" ]

(* ------------------------------------------------------------------ *)
(* qcheck *)

let linear_rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed ->
          Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_range 0 5000))

let prop_linear_class_detected =
  QCheck.Test.make ~name:"generator output classified linear+sticky"
    ~count:50 linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let c = Classes.classify rules in
      c.linear && c.sticky)

let prop_restricted_subset_behavior =
  QCheck.Test.make ~name:"restricted chase ≤ oblivious chase (atoms)"
    ~count:20 linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let i = Parser.instance "E(c0,c1), A(c0)" in
      let obl = Chase.run ~max_depth:3 i rules in
      let res = Chase.run ~variant:Chase.Restricted ~max_depth:3 i rules in
      Instance.cardinal res.instance <= Instance.cardinal obl.instance)

let prop_model_search_sound =
  QCheck.Test.make ~name:"found finite models are models" ~count:20
    linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let i = Parser.instance "E(c0,c1)" in
      match Finite_model.search ~fresh:1 ~max_steps:50000 i rules with
      | Model m -> is_model ~start:i m rules
      | No_model | Exhausted _ -> true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_linear_class_detected;
      prop_restricted_subset_behavior;
      prop_model_search_sound;
    ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "extensions"
    [
      ( "weak-acyclicity",
        [
          tc "datalog" test_wa_datalog;
          tc "successor" test_wa_successor;
          tc "stratified" test_wa_stratified;
          tc "cycle via datalog" test_wa_cycle_via_datalog;
          tc "certificate" test_wa_certificate;
          tc "terminating chase" test_wa_terminating_chase;
          tc "dependency edges" test_wa_dependency_edges;
        ] );
      ( "classes",
        [
          tc "linear" test_linear;
          tc "guarded" test_guarded;
          tc "frontier-guarded" test_frontier_guarded;
          tc "sticky" test_sticky;
          tc "sticky propagation" test_sticky_propagation;
          tc "classify zoo" test_classify_zoo;
          tc "classes imply bdd" test_classes_imply_bdd;
        ] );
      ( "restricted-chase",
        [
          tc "smaller" test_restricted_smaller;
          tc "equivalent" test_restricted_equivalent;
          tc "skips satisfied" test_restricted_saturates_on_satisfied;
          tc "loop agrees" test_restricted_loop_detection_agrees;
        ] );
      ( "semi-oblivious",
        [
          tc "between variants" test_semi_oblivious_between;
          tc "collapses non-frontier" test_semi_oblivious_collapses_nonfrontier;
          tc "universal" test_semi_oblivious_universal;
        ] );
      ( "universality",
        [ tc "chase maps into finite models" test_chase_maps_into_finite_models ] );
      ( "finite-models",
        [
          tc "is model" test_is_model;
          tc "violations" test_violations;
          tc "search finds model" test_search_finds_model;
          tc "example1 fc gap" test_example1_not_fc_witness;
          tc "symmetric loop-free" test_symmetric_has_loop_free_model;
          tc "forbid respected" test_forbid_respected;
          tc "empty rules" test_search_empty_rules;
          tc "negative fresh rejected" test_search_negative_fresh;
          tc "successor cycle model" test_succ_only_needs_cycle;
        ] );
      ("qcheck", props);
    ]
