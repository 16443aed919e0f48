open Nca_logic
module Chase = Nca_chase.Chase
module Trigger = Nca_chase.Trigger

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let e2 = Symbol.make "E" 2
let loop = Cq.loop_query e2

let example1 = Nca_core.Rulesets.example1
let example1_bdd = Nca_core.Rulesets.example1_bdd

(* ------------------------------------------------------------------ *)
(* Triggers *)

let test_triggers_enumeration () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let i = Parser.instance "E(a,b), E(b,c)" in
  let ts = Trigger.all rules i in
  (* homs: (a,b,c), (a,b)-(b,c) only... x→a y→b z→c; also x→y→z over the
     same atom pairs in the other order fails; plus (b,c)+(c,?) none. *)
  check_int "one join trigger" 1 (List.length ts)

let test_trigger_output_fresh () =
  let rule = Parser.rule "E(x,y) -> E(y,z)" in
  let i = Parser.instance "E(a,b)" in
  match Trigger.all [ rule ] i with
  | [ tr ] ->
      let out, ext = Trigger.output tr in
      check_int "one atom" 1 (Instance.cardinal out);
      let z = Subst.apply ext (Term.var "z") in
      check "existential became a null" true (Term.is_null z);
      let out2, _ = Trigger.output tr in
      check "fresh nulls each time" false (Instance.equal out out2)
  | _ -> Alcotest.fail "expected exactly one trigger"

let key_testable = Alcotest.testable Trigger.Key.pp Trigger.Key.equal

let test_trigger_key_identity () =
  let rule = Parser.rule "E(x,y) -> E(y,z)" in
  let i = Parser.instance "E(a,b)" in
  match (Trigger.all [ rule ] i, Trigger.all [ rule ] i) with
  | [ t1 ], [ t2 ] ->
      Alcotest.check key_testable "stable key" (Trigger.key t1)
        (Trigger.key t2);
      Alcotest.(check int)
        "stable hash" (Trigger.Key.hash (Trigger.key t1))
        (Trigger.Key.hash (Trigger.key t2))
  | _ -> Alcotest.fail "expected exactly one trigger"

let test_trigger_frontier_image () =
  let rule = Parser.rule "E(x,y) -> E(y,z)" in
  let i = Parser.instance "E(a,b)" in
  match Trigger.all [ rule ] i with
  | [ tr ] ->
      check "frontier image is {b}" true
        (Term.Set.equal (Trigger.frontier_image tr)
           (Term.Set.singleton (Term.cst "b")))
  | _ -> Alcotest.fail "expected exactly one trigger"

(* ------------------------------------------------------------------ *)
(* Chase basics *)

let test_chase_example1 () =
  let c = Chase.run ~max_depth:4 example1.instance example1.rules in
  check "no loop in chase of Example 1" false (Chase.entails c loop);
  check "E(a,b) kept" true
    (Instance.mem (Atom.make e2 [ Term.cst "a"; Term.cst "b" ]) c.instance);
  check "grows" true (Instance.cardinal c.instance > 1);
  check "not saturated" false (c.saturated

)

let test_chase_example1_bdd_loop () =
  let c = Chase.run ~max_depth:3 example1_bdd.instance example1_bdd.rules in
  check "loop entailed" true (Chase.entails c loop);
  match Chase.holds_at c loop with
  | Some level -> check "loop appears by level 2" true (level <= 2)
  | None -> Alcotest.fail "loop expected"

let test_chase_datalog_saturates () =
  let rules = Parser.parse_rules "sym: E(x,y) -> E(y,x)." in
  let c = Chase.run (Parser.instance "E(a,b)") rules in
  check "saturated" true c.saturated;
  check_int "two atoms" 2 (Instance.cardinal c.instance);
  check "symmetric edge" true
    (Instance.mem (Atom.make e2 [ Term.cst "b"; Term.cst "a" ]) c.instance)

let test_chase_levels_monotone () =
  let c = Chase.run ~max_depth:3 example1.instance example1.rules in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        check "levels grow" true (Instance.subset a b);
        pairs rest
    | _ -> ()
  in
  pairs c.levels;
  check_int "levels count" (c.depth + 1) (List.length c.levels)

let test_chase_level_access () =
  let c = Chase.run ~max_depth:3 example1.instance example1.rules in
  check "level 0 is the database" true
    (Instance.equal (Chase.level c 0) example1.instance);
  check "level beyond depth clamps" true
    (Instance.equal (Chase.level c 99) c.instance)

let test_chase_timestamps () =
  let c = Chase.run ~max_depth:3 example1.instance example1.rules in
  check "database terms at 0" true
    (Chase.timestamp c (Term.cst "a") = Some 0);
  check "terms outside the chase have no timestamp" true
    (Chase.timestamp c (Term.cst "not-in-the-chase") = None);
  Term.Set.iter
    (fun t ->
      check "invented terms have positive timestamps" true
        (match Chase.timestamp c t with Some ts -> ts > 0 | None -> false))
    (Chase.invented c)

let test_chase_provenance () =
  let c = Chase.run ~max_depth:3 example1.instance example1.rules in
  Term.Set.iter
    (fun t ->
      match Term.Map.find_opt t c.provenance with
      | None -> Alcotest.fail "invented term without provenance"
      | Some p ->
          check "created by the existential rule" true
            (String.equal (Rule.name p.rule) "succ");
          check "provenance level matches timestamp" true
            (Some p.level = Chase.timestamp c t))
    (Chase.invented c)

let test_chase_oblivious_refire () =
  (* the oblivious chase fires a trigger even when its output is already
     present: E(a,b) with rule E(x,y) -> E(y,z) twice over the same atom
     is a single trigger, but a symmetric pair gives two *)
  let rules = Parser.parse_rules "r: E(x,y) -> E(y,z)." in
  let c = Chase.run ~max_depth:1 (Parser.instance "E(a,b), E(b,a)") rules in
  check_int "two fresh terms at level 1" 2
    (Term.Set.cardinal (Chase.invented c))

let test_chase_max_atoms () =
  let c =
    Chase.run ~max_depth:50 ~max_atoms:30 example1.instance example1.rules
  in
  check "stopped on the atom budget" true
    (match c.stopped with
    | Some e -> e.Nca_obs.Exhausted.resource = Nca_obs.Exhausted.Atoms
    | None -> false);
  check "did not explode" true (Instance.cardinal c.instance < 1000)

let test_chase_from_top () =
  let rules =
    Parser.parse_rules "init: TOP -> E(x,y). succ: E(x,y) -> E(y,z)."
  in
  let c = Chase.run ~max_depth:3 Instance.top rules in
  check "E created from ⊤" true
    (Cq.holds c.instance (Cq.boolean [ Atom.app "E" [ Term.var "u"; Term.var "v" ] ]));
  check "all terms invented" true
    (Term.Set.equal (Chase.invented c) (Chase.terms c))

let test_chase_empty_rules () =
  let c = Chase.run example1.instance [] in
  check "saturated immediately" true c.saturated;
  check "instance unchanged" true (Instance.equal c.instance example1.instance)

let test_timestamp_multiset () =
  let c = Chase.run ~max_depth:2 example1.instance example1.rules in
  let ms = Chase.timestamp_multiset c (Instance.adom example1.instance) in
  check_int "two database terms at 0" 2
    (Nca_graph.Multiset.Int_multiset.count 0 ms)

let test_e_graph () =
  let c = Chase.run ~max_depth:2 example1.instance example1.rules in
  let g = Chase.e_graph e2 c in
  check "edges present" true (Nca_graph.Digraph.Term_graph.num_edges g > 0)

(* ------------------------------------------------------------------ *)
(* Universality-flavored checks *)

let test_chase_entails_its_queries () =
  let c = Chase.run ~max_depth:3 example1.instance example1.rules in
  let q = Parser.query "? E(x,y), E(y,z)" in
  check "path of 2 entailed" true (Chase.entails c q)

let test_chase_dag_for_forward_existential () =
  (* Observation 35: the chase of a forward-existential set is a DAG *)
  List.iter
    (fun name ->
      let entry = Nca_core.Rulesets.find name in
      let _, existential = Rule.split_datalog entry.rules in
      let c = Chase.run ~max_depth:4 entry.instance existential in
      Term.Set.iter
        (fun _ -> ())
        (Chase.invented c);
      let g = Nca_graph.Digraph.of_instance entry.e c.instance in
      check (name ^ " existential chase is a DAG") true
        (Nca_graph.Digraph.Term_graph.is_dag g || not
           (Nca_surgery.Properties.is_forward_existential existential)))
    [ "succ_only"; "example1_bdd"; "inclusion" ]

let test_holds_at_first_level () =
  let c = Chase.run ~max_depth:3 example1_bdd.instance example1_bdd.rules in
  match Chase.holds_at c loop with
  | None -> Alcotest.fail "loop expected"
  | Some k ->
      check "not at level 0" true (k > 0);
      check "loop absent one level earlier" false
        (Cq.holds (Chase.level c (k - 1)) loop)

(* ------------------------------------------------------------------ *)
(* Properties *)

let rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed ->
          Nca_core.Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_range 0 10000))

let prop_chase_monotone_in_depth =
  QCheck.Test.make ~name:"deeper chase contains shallower" ~count:30 rules_arb
    (fun rules ->
      let i = Parser.instance "E(c0,c1), A(c0)" in
      let c2 = Chase.run ~max_depth:2 i rules in
      let c4 = Chase.run ~max_depth:4 i rules in
      (* fresh nulls differ between runs; compare up to homomorphism *)
      Hom.exists (Instance.atoms c2.instance) c4.instance)

let prop_chase_preserves_database =
  QCheck.Test.make ~name:"chase contains the database" ~count:30 rules_arb
    (fun rules ->
      let i = Parser.instance "E(c0,c1), B(c1)" in
      let c = Chase.run ~max_depth:3 i rules in
      Instance.subset i c.instance)

let prop_dag_forward_existential =
  QCheck.Test.make ~name:"Obs 35: fwd-existential chase from ⊤+seed is a DAG"
    ~count:30 rules_arb (fun rules ->
      QCheck.assume (Nca_surgery.Properties.is_forward_existential rules);
      let _, existential = Rule.split_datalog rules in
      let i = Parser.instance "E(c0,c1)" in
      let c = Chase.run ~max_depth:4 i existential in
      (* edges among invented terms only (database edges may be arbitrary) *)
      let g =
        Nca_graph.Digraph.Term_graph.restrict
          (Nca_graph.Digraph.Term_graph.VSet.of_list
             (Term.Set.elements (Chase.invented c)))
          (Chase.e_graph e2 c)
      in
      Nca_graph.Digraph.Term_graph.is_dag g)

(* Random instances over {E/2, F/2} mixing constants and variables, for
   the delta-decomposition property below. *)
let delta_atom_gen =
  QCheck.Gen.(
    let term =
      oneof
        [
          map (fun i -> Term.var (Printf.sprintf "v%d" (abs i mod 4))) int;
          map (fun i -> Term.cst (Printf.sprintf "c%d" (abs i mod 3))) int;
        ]
    in
    let* s = term in
    let* t = term in
    let* choice = bool in
    return (if choice then Atom.app "E" [ s; t ] else Atom.app "F" [ s; t ]))

let delta_instance_arb =
  QCheck.make
    QCheck.Gen.(map Instance.of_list (list_size (int_range 0 10) delta_atom_gen))

let delta_rules =
  Parser.parse_rules
    {| succ: E(x,y) -> E(y,z).
       tc: E(x,y), E(y,z) -> E(x,z).
       mix: E(x,y), F(y,z) -> F(x,w). |}

(* The pivot decomposition behind the semi-naive chase:
   all_delta rules ~total ~delta enumerates exactly the triggers of
   [total] that are not triggers of [total ∖ delta], each once. *)
let prop_all_delta_is_set_difference =
  QCheck.Test.make
    ~name:"Trigger.all_delta = all(total) minus all(total∖delta)" ~count:500
    (QCheck.pair delta_instance_arb delta_instance_arb) (fun (i1, i2) ->
      let total = Instance.union i1 i2 in
      let delta = i2 in
      let old = Instance.diff total delta in
      let keys trs = List.sort Trigger.Key.compare (List.map Trigger.key trs) in
      let got = keys (Trigger.all_delta delta_rules ~total ~delta) in
      let old_keys = keys (Trigger.all delta_rules old) in
      let expected =
        List.filter
          (fun k -> not (List.exists (Trigger.Key.equal k) old_keys))
          (keys (Trigger.all delta_rules total))
      in
      List.equal Trigger.Key.equal got expected)

(* [iter_delta] streams what [all_delta] lists, in the same order; both
   agree with running the pivot tasks one by one. *)
let same_trigger (a : Trigger.t) (b : Trigger.t) =
  Rule.equal a.rule b.rule && Subst.equal a.hom b.hom

let prop_iter_delta_is_all_delta =
  QCheck.Test.make ~name:"Trigger.iter_delta streams all_delta in order"
    ~count:300
    (QCheck.pair delta_instance_arb delta_instance_arb) (fun (i1, i2) ->
      let total = Instance.union i1 i2 in
      let delta = i2 in
      let streamed = ref [] in
      Trigger.iter_delta delta_rules ~total ~delta (fun tr ->
          streamed := tr :: !streamed);
      let streamed = List.rev !streamed in
      let tasks =
        List.concat_map
          (fun (rule, goals) ->
            let homs = ref [] in
            Hom.iter_targets goals (fun h -> homs := h :: !homs);
            List.rev_map (fun hom -> { Trigger.rule; hom }) !homs)
          (Trigger.delta_tasks delta_rules ~total ~delta)
      in
      List.equal same_trigger streamed
        (Trigger.all_delta delta_rules ~total ~delta)
      && List.equal same_trigger streamed tasks)

(* Rules sharing a label are still different rules: each fires. *)
let test_shared_label_keeps_both_rules () =
  let rules = Parser.parse_rules "r: A(x) -> B(x). r: A(x) -> C(x)." in
  let start = Parser.instance "A(a)" in
  List.iter
    (fun (name, variant) ->
      let c = Chase.run ~variant ~max_depth:3 start rules in
      check_int (name ^ ": atoms") 3 (Instance.cardinal c.Chase.instance);
      check (name ^ ": C(a) derived") true
        (Instance.mem (Atom.app "C" [ Term.cst "a" ]) c.Chase.instance))
    [
      ("oblivious", Chase.Oblivious);
      ("semi-oblivious", Chase.Semi_oblivious);
      ("restricted", Chase.Restricted);
    ]

(* ... while a rule stated twice is one rule: its trigger fires once. *)
let test_repeated_rule_fires_once () =
  let start = Parser.instance "A(a)" in
  let atoms src =
    Instance.cardinal
      (Chase.run ~max_depth:3 start (Parser.parse_rules src)).Chase.instance
  in
  check_int "same rule twice" 2 (atoms "r: A(x) -> B(x,z). r: A(x) -> B(x,z).");
  check_int "two labels" 3 (atoms "r1: A(x) -> B(x,z). r2: A(x) -> B(x,z).")

(* The variable sets and lists a rule caches at construction are the
   ones recomputed from its atoms, for every zoo rule and a renamed copy. *)
let test_rule_cached_vars () =
  let same_set = Term.Set.equal in
  let same_list = List.equal Term.equal in
  List.iter
    (fun (entry : Nca_core.Rulesets.entry) ->
      List.iter
        (fun rule ->
          List.iter
            (fun r ->
              let body = Atom.vars_of_list (Rule.body r) in
              let head = Atom.vars_of_list (Rule.head r) in
              let frontier = Term.Set.inter body head in
              let exist = Term.Set.diff head body in
              let what = Fmt.str "%s %a" entry.name Rule.pp r in
              check (what ^ ": body vars") true (same_set body (Rule.body_vars r));
              check (what ^ ": head vars") true (same_set head (Rule.head_vars r));
              check (what ^ ": frontier") true
                (same_set frontier (Rule.frontier r));
              check (what ^ ": exist vars") true
                (same_set exist (Rule.exist_vars r));
              check (what ^ ": body var list") true
                (same_list (Term.Set.elements body) (Rule.body_var_list r));
              check (what ^ ": frontier list") true
                (same_list (Term.Set.elements frontier) (Rule.frontier_list r));
              check (what ^ ": exist vars by name") true
                (same_list (Term.sorted_elements exist)
                   (Rule.exist_vars_by_name r));
              check (what ^ ": datalog") (Term.Set.is_empty exist)
                (Rule.is_datalog r))
            [ rule; Rule.rename_apart rule ])
        entry.rules)
    Nca_core.Rulesets.zoo

(* The counts of the two benchmark chases, pinned: streaming the round
   must fire the same triggers. *)
let test_chase_counters_pinned () =
  let module Telemetry = Nca_obs.Telemetry in
  let run (entry : Nca_core.Rulesets.entry) depth =
    Telemetry.enable ();
    Fun.protect ~finally:Telemetry.disable @@ fun () ->
    let c = Chase.run ~max_depth:depth entry.instance entry.rules in
    let counter name =
      Option.value ~default:0
        (List.assoc_opt name (Telemetry.snapshot ()).Telemetry.counters)
    in
    ( Instance.cardinal c.Chase.instance,
      counter "chase.triggers",
      counter "chase.rounds" )
  in
  let pin name (atoms, triggers, rounds) got =
    let a, t, r = got in
    check_int (name ^ ": atoms") atoms a;
    check_int (name ^ ": triggers") triggers t;
    check_int (name ^ ": rounds") rounds r
  in
  pin "example1_bdd -d 7" (4080, 278256, 7) (run example1_bdd 7);
  pin "example1 -d 32" (20365, 31603, 11) (run example1 32)

let test_seed_with_guard () =
  let module D = Nca_chase.Datalog in
  let x = Term.var "x" and y = Term.var "y" in
  let pat = Atom.app "E" [ x; y ] in
  (match D.seed_with pat (Atom.app "E" [ Term.cst "a"; Term.cst "b" ]) with
  | Some s ->
      check "binds x" true (Term.equal (Subst.apply s x) (Term.cst "a"));
      check "binds y" true (Term.equal (Subst.apply s y) (Term.cst "b"))
  | None -> Alcotest.fail "expected a seeding");
  check "predicate mismatch is None (not an exception)" true
    (D.seed_with pat (Atom.app "F" [ Term.cst "a"; Term.cst "b" ]) = None);
  check "arity mismatch is None (not an exception)" true
    (D.seed_with pat (Atom.app "E" [ Term.cst "a" ]) = None);
  check "constant clash is None" true
    (D.seed_with
       (Atom.app "E" [ Term.cst "a"; y ])
       (Atom.app "E" [ Term.cst "b"; Term.cst "c" ])
    = None)

let prop_offending_cycle_certificate =
  QCheck.Test.make ~name:"offending_cycle is a real special-edge cycle"
    ~count:100 rules_arb (fun rules ->
      let module A = Nca_chase.Acyclicity in
      match A.offending_cycle rules with
      | None -> A.is_weakly_acyclic rules
      | Some cycle ->
          let edges = A.dependency_graph rules in
          let edge ?special u v =
            List.exists
              (fun (e : A.edge) ->
                e.source = u && e.target = v
                &&
                match special with None -> true | Some s -> e.special = s)
              edges
          in
          let rec pairs = function
            | u :: (v :: _ as rest) -> (u, v) :: pairs rest
            | _ -> []
          in
          let ps = pairs cycle in
          (not (A.is_weakly_acyclic rules))
          && ps <> []
          && List.hd cycle = List.nth cycle (List.length cycle - 1)
          && List.for_all (fun (u, v) -> edge u v) ps
          && (let u, v = List.hd ps in
              edge ~special:true u v))

let test_acyclicity_certificate_example () =
  let module A = Nca_chase.Acyclicity in
  let rules = Parser.parse_rules "g: A(x) -> E(x,y), A(y)." in
  check "not weakly acyclic" false (A.is_weakly_acyclic rules);
  match A.offending_cycle rules with
  | None -> Alcotest.fail "expected a certificate"
  | Some cycle -> check "cycle closes" true (List.hd cycle = List.nth cycle (List.length cycle - 1))

let test_acyclicity_negative () =
  let module A = Nca_chase.Acyclicity in
  (* special edges exist (y is existential) but no cycle through one *)
  let rules = Parser.parse_rules "r: E(x,y) -> A(x). s: A(x) -> B(x,y)." in
  check "weakly acyclic" true (A.is_weakly_acyclic rules);
  check "no certificate" true (A.offending_cycle rules = None)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_chase_monotone_in_depth;
      prop_chase_preserves_database;
      prop_dag_forward_existential;
      prop_all_delta_is_set_difference;
      prop_iter_delta_is_all_delta;
      prop_offending_cycle_certificate;
    ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "chase"
    [
      ( "trigger",
        [
          tc "enumeration" test_triggers_enumeration;
          tc "fresh output" test_trigger_output_fresh;
          tc "key identity" test_trigger_key_identity;
          tc "frontier image" test_trigger_frontier_image;
          tc "rules sharing a label" test_shared_label_keeps_both_rules;
          tc "a repeated rule" test_repeated_rule_fires_once;
          tc "cached rule variables" test_rule_cached_vars;
        ] );
      ( "chase",
        [
          tc "example 1" test_chase_example1;
          tc "example 1 bdd loops" test_chase_example1_bdd_loop;
          tc "datalog saturates" test_chase_datalog_saturates;
          tc "levels monotone" test_chase_levels_monotone;
          tc "level access" test_chase_level_access;
          tc "timestamps" test_chase_timestamps;
          tc "provenance" test_chase_provenance;
          tc "oblivious refire" test_chase_oblivious_refire;
          tc "max atoms" test_chase_max_atoms;
          tc "from top" test_chase_from_top;
          tc "empty rules" test_chase_empty_rules;
          tc "timestamp multiset" test_timestamp_multiset;
          tc "e-graph" test_e_graph;
          tc "pinned counters" test_chase_counters_pinned;
        ] );
      ( "semantics",
        [
          tc "entails queries" test_chase_entails_its_queries;
          tc "dag for fwd-existential" test_chase_dag_for_forward_existential;
          tc "first loop level" test_holds_at_first_level;
        ] );
      ( "acyclicity",
        [
          tc "certificate on a cyclic set" test_acyclicity_certificate_example;
          tc "no certificate on a weakly acyclic set" test_acyclicity_negative;
        ] );
      ("datalog", [ tc "seed_with guards" test_seed_with_guard ]);
      ("properties", props);
    ]
