open Nca_logic
module Valley = Nca_core.Valley
module Witness = Nca_core.Witness
module Theorem1 = Nca_core.Theorem1
module Rulesets = Nca_core.Rulesets
module Tabular = Nca_experiments.Tabular
module MS = Nca_graph.Multiset.Int_multiset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let e2 = Symbol.make "E" 2
let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"
let w = Term.var "w"
let e s t = Atom.app "E" [ s; t ]

(* ------------------------------------------------------------------ *)
(* Valley queries *)

let test_valley_basic () =
  (* x ← z → y : a V shape, the eponymous valley *)
  let q = Cq.make ~answer:[ x; y ] [ e z x; e z y ] in
  check "V shape is a valley" true (Valley.is_valley q);
  check "two-max" true (Valley.shape q = Valley.Two_max)

let test_valley_single_max () =
  (* y → x : x is the only maximal variable *)
  let q = Cq.make ~answer:[ x; y ] [ e y x ] in
  check "edge is a valley" true (Valley.is_valley q);
  check "single max x" true (Valley.shape q = Valley.Single_max `X);
  let q' = Cq.make ~answer:[ x; y ] [ e x y ] in
  check "single max y" true (Valley.shape q' = Valley.Single_max `Y)

let test_valley_disconnected () =
  let q = Cq.make ~answer:[ x; y ] [ e z x; e w y ] in
  check "valley" true (Valley.is_valley q);
  check "disconnected" true (Valley.shape q = Valley.Disconnected)

let test_not_valley_peak () =
  (* x → z ← y has the existential z maximal: not a valley *)
  let q = Cq.make ~answer:[ x; y ] [ e x z; e y z ] in
  check "peak is not a valley" false (Valley.is_valley q)

let test_not_valley_cycle () =
  let q = Cq.make ~answer:[ x; y ] [ e x y; e y x ] in
  check "cycle is not a valley" false (Valley.is_valley q)

let test_not_valley_wrong_arity () =
  let q = Cq.make ~answer:[ x ] [ e x y ] in
  check "unary answers rejected" false (Valley.is_valley q)

let test_valley_order_graph () =
  let q = Cq.make ~answer:[ x; y ] [ e z x; e z y ] in
  let g = Valley.order_graph q in
  check "z below x" true (Nca_graph.Digraph.Term_graph.reaches z x g);
  check "x not below z" false (Nca_graph.Digraph.Term_graph.reaches x z g);
  check "maximal = {x,y}" true
    (Term.Set.equal (Valley.maximal_vars q) (Term.Set.of_list [ x; y ]))

let test_functional_lemma42 () =
  (* over a DAG instance, a path query y →…→ x defines a function *)
  let i = Parser.instance "E(a,b), E(b,c), E(d,c)" in
  let q = Cq.make ~answer:[ x; y ] [ e y x ] in
  check "edge relation functional on this DAG" false
    (Valley.functional_on i q);
  (* E(a,b),E(b,c): from a the only edge goes to b; functional *)
  let i2 = Parser.instance "E(a,b), E(b,c)" in
  let q2 = Cq.make ~answer:[ y; x ] [ e y x ] in
  check "out-degree-1 DAG functional" true (Valley.functional_on i2 q2)

let test_defines_tournament () =
  let i = Parser.instance "E(a,b), E(b,c), E(a,c)" in
  let q = Cq.make ~answer:[ x; y ] [ e x y ] in
  check "triangle" true
    (Valley.defines_tournament i q
       [ Term.cst "a"; Term.cst "b"; Term.cst "c" ]);
  check "missing pair" false
    (Valley.defines_tournament i q
       [ Term.cst "a"; Term.cst "b"; Term.cst "d" ])

let test_loop_witness_disconnected_case () =
  (* Prop 43, disconnected case, materialized: q(x,y) = E(z,x) ∧ E(w,y);
     on a 4-tournament of sinks the same u ends both sides *)
  let i =
    Parser.instance
      "E(s,k1), E(s,k2), E(s,k3), E(s,k4)"
  in
  let q = Cq.make ~answer:[ x; y ] [ e z x; e w y ] in
  let k = [ Term.cst "k1"; Term.cst "k2"; Term.cst "k3"; Term.cst "k4" ] in
  check "q-tournament" true (Valley.defines_tournament i q k);
  check "loop witness exists" true
    (Option.is_some (Valley.loop_witness_in_tournament i q k))

(* ------------------------------------------------------------------ *)
(* Witness analysis on regalized example1_bdd *)

let regal_analysis =
  lazy
    (let entry = Rulesets.example1_bdd in
     let p = Nca_surgery.Pipeline.regalize entry.instance entry.rules in
     Witness.analyze ~depth:4 ~e:entry.e p.final)

let test_analysis_dag () =
  let t = Lazy.force regal_analysis in
  (* Observation 35 *)
  let g =
    Nca_graph.Digraph.of_instance t.e t.chase_ex.Nca_chase.Chase.instance
  in
  check "Ch(R∃) is a DAG" true (Nca_graph.Digraph.Term_graph.is_dag g)

let test_analysis_rewriting_complete () =
  let t = Lazy.force regal_analysis in
  check "Q_⊠ computed to fixpoint" true t.rewriting_complete;
  check "Q_⊠ nonempty" true (Ucq.size t.rewriting > 0)

let test_observation37_witnesses_nonempty () =
  let t = Lazy.force regal_analysis in
  let edges = Witness.edges t in
  check "edges exist" true (edges <> []);
  List.iter
    (fun (s, tt) ->
      check "W(s,t) nonempty" true (Witness.witnesses t s tt <> []))
    edges

let test_valley_witness_every_edge () =
  let t = Lazy.force regal_analysis in
  List.iter
    (fun (s, tt) ->
      match Witness.valley_witness t s tt with
      | None -> Alcotest.fail "no valley witness"
      | Some (q, h) ->
          check "witness is a valley" true (Valley.is_valley q);
          (* and it is a genuine injective witness *)
          let img = Subst.apply_atoms h (Cq.body q) in
          check "image inside Ch(R∃)" true
            (List.for_all
               (fun a -> Instance.mem a t.chase_ex.Nca_chase.Chase.instance)
               img))
    (Witness.edges t)

let test_peak_removal_decreases () =
  let t = Lazy.force regal_analysis in
  List.iter
    (fun (s, tt) ->
      let ws = Witness.witnesses t s tt in
      List.iter
        (fun witness ->
          let outcome = Witness.remove_peaks t s tt witness in
          (* multisets strictly decrease along the steps *)
          let rec strictly_decreasing = function
            | a :: (b :: _ as rest) ->
                MS.compare_lex b.Witness.timestamp_multiset
                  a.Witness.timestamp_multiset
                < 0
                && strictly_decreasing rest
            | _ -> true
          in
          check "TSₘ strictly decreases" true
            (strictly_decreasing outcome.steps);
          check "ends in a valley" true (Option.is_some outcome.valley))
        ws)
    (Witness.edges t)

let test_color_edges () =
  let t = Lazy.force regal_analysis in
  let g = Nca_graph.Digraph.of_instance t.e t.full in
  let k = Nca_graph.Tournament.max_tournament g in
  check "tournament of size ≥ 3" true (List.length k >= 3);
  match Witness.color_edges t k with
  | None -> Alcotest.fail "coloring failed"
  | Some colored ->
      check_int "one color per unordered pair"
        (List.length k * (List.length k - 1) / 2)
        (List.length colored);
      List.iter
        (fun (_, q) -> check "colors are valleys" true (Valley.is_valley q))
        colored

let test_monochromatic_subtournament () =
  let t = Lazy.force regal_analysis in
  let g = Nca_graph.Digraph.of_instance t.e t.full in
  let k = Nca_graph.Tournament.max_tournament g in
  match Witness.monochromatic_subtournament t k with
  | None -> Alcotest.fail "expected a monochromatic sub-tournament"
  | Some (q, sub) ->
      check "valley color" true (Valley.is_valley q);
      check "sub-tournament nonempty" true (sub <> [])

(* ------------------------------------------------------------------ *)
(* Theorem 1 validation *)

let test_theorem1_example1 () =
  let entry = Rulesets.example1 in
  let v = Theorem1.validate ~max_depth:5 ~e:entry.e entry.instance entry.rules in
  check "tournaments grow" true (v.max_tournament >= 4);
  check "no loop (not bdd: no contradiction)" false v.loop

let test_theorem1_example1_bdd () =
  let entry = Rulesets.example1_bdd in
  let v = Theorem1.validate ~max_depth:4 ~e:entry.e entry.instance entry.rules in
  check "tournament present" true (v.max_tournament >= 3);
  check "loop entailed" true v.loop;
  check "implication holds" true (Theorem1.implication_holds ~threshold:3 v)

let test_theorem1_zoo_bdd_sets () =
  (* Theorem 1 on every bdd zoo entry: tournament ≥ 4 forces a loop *)
  List.iter
    (fun (entry : Rulesets.entry) ->
      match entry.bdd_expected with
      | Some true ->
          let v =
            Theorem1.validate ~max_depth:4 ~max_atoms:4000 ~e:entry.e
              entry.instance entry.rules
          in
          check (entry.name ^ ": Theorem 1") true
            (Theorem1.implication_holds ~threshold:4 v)
      | _ -> ())
    Rulesets.zoo

let test_theorem1_series_monotone () =
  let entry = Rulesets.example1 in
  let s = Theorem1.series ~max_depth:4 ~e:entry.e entry.instance entry.rules in
  check "levels counted" true (List.length s >= 4);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Theorem1.level_atoms <= b.Theorem1.level_atoms
        && a.Theorem1.level_tournament <= b.Theorem1.level_tournament
        && monotone rest
    | _ -> true
  in
  check "atoms and tournaments monotone" true (monotone s)

let test_theorem1_tournament_bound () =
  check_int "bound for 1 disjunct" 4
    (Theorem1.tournament_size_bound ~rewriting_disjuncts:1);
  check_int "bound for 2 disjuncts" 18
    (Theorem1.tournament_size_bound ~rewriting_disjuncts:2);
  check "monotone in disjuncts" true
    (Theorem1.tournament_size_bound ~rewriting_disjuncts:3
    > Theorem1.tournament_size_bound ~rewriting_disjuncts:2)

let test_all_pairs_tournament_with_loop () =
  let entry = Rulesets.all_pairs in
  let v = Theorem1.validate ~max_depth:3 ~e:entry.e entry.instance entry.rules in
  check "big tournament" true (v.max_tournament >= 3);
  check "loop present, as Theorem 1 demands" true v.loop

(* ------------------------------------------------------------------ *)
(* Rule-set zoo integrity *)

let test_zoo_names_unique () =
  let names = List.map (fun (en : Rulesets.entry) -> en.name) Rulesets.zoo in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_zoo_instances_match_signatures () =
  List.iter
    (fun (entry : Rulesets.entry) ->
      check (entry.name ^ " instance nonempty") true
        (not (Instance.is_empty entry.instance)))
    Rulesets.zoo

let test_zoo_find () =
  check "find example1" true
    (String.equal (Rulesets.find "example1").name "example1");
  check "find raises" true
    (try
       ignore (Rulesets.find "nope");
       false
     with Not_found -> true)

let test_random_rules_shape () =
  let rules = Rulesets.random_forward_existential_rules ~seed:42 ~rules:6 in
  check "nonempty" true (rules <> []);
  check "all linear" true
    (List.for_all (fun r -> List.length (Rule.body r) = 1) rules);
  check "deterministic" true
    (List.equal Rule.equal rules
       (Rulesets.random_forward_existential_rules ~seed:42 ~rules:6))

let test_random_instance_shape () =
  let sign = Symbol.Set.of_list [ e2; Symbol.make "A" 1 ] in
  let i = Rulesets.random_instance ~seed:7 ~constants:3 ~atoms:5 sign in
  check "bounded" true (Instance.cardinal i <= 5);
  check "over signature" true
    (Symbol.Set.subset (Instance.signature i) sign)

(* ------------------------------------------------------------------ *)
(* Section 6: UCQ-defined tournaments *)

let test_definable_rules () =
  let r = Atom.app "R" [ x; y ] and s = Atom.app "S" [ y; x ] in
  let ucq =
    Ucq.make [ Cq.make ~answer:[ x; y ] [ r ]; Cq.make ~answer:[ x; y ] [ s ] ]
  in
  let defs = Nca_experiments.Definable.definition_rules ~e:e2 ucq in
  check_int "one rule per disjunct" 2 (List.length defs);
  check "all datalog" true (List.for_all Rule.is_datalog defs)

let test_definable_freshness () =
  let ucq = Ucq.make [ Cq.make ~answer:[ x; y ] [ e x y ] ] in
  check "E inside the UCQ rejected" true
    (try
       ignore (Nca_experiments.Definable.definition_rules ~e:e2 ucq);
       false
     with Invalid_argument _ -> true);
  let ucq_r = Ucq.make [ Cq.make ~answer:[ x; y ] [ Atom.app "R" [ x; y ] ] ] in
  check "E in the rule set rejected" true
    (try
       ignore
         (Nca_experiments.Definable.extend ~e:e2 ucq_r
            (Parser.parse_rules "r: E(x,y) -> E(y,x)."));
       false
     with Invalid_argument _ -> true)

let test_definable_preserves_bdd () =
  let ucq_r =
    Ucq.make
      [
        Cq.make ~answer:[ x; y ] [ Atom.app "R" [ x; y ] ];
        Cq.make ~answer:[ x; y ] [ Atom.app "S" [ y; x ] ];
      ]
  in
  let base = Parser.parse_rules "gr: R(x,y) -> R(y,z). gs: R(x,y) -> S(x,w)." in
  check "Section 6 remark holds" true
    (Nca_experiments.Definable.preserves_bdd ~e:e2 ucq_r base)

let test_definable_zoo_entry () =
  let entry = Rulesets.ucq_defined in
  let v = Theorem1.validate ~max_depth:4 ~e:entry.e entry.instance entry.rules in
  check "theorem 1 shadow" true (Theorem1.implication_holds ~threshold:4 v);
  (* the defined E contains both R-edges and reversed S-edges *)
  let chase = Nca_chase.Chase.run ~max_depth:3 entry.instance entry.rules in
  let has_pred p =
    Instance.exists
      (fun a -> Symbol.equal (Atom.pred a) (Symbol.make p 2))
      chase.instance
  in
  check "R present" true (has_pred "R");
  check "E derived" true (has_pred "E")

(* ------------------------------------------------------------------ *)
(* Tabular *)

let test_tabular_renders () =
  let out =
    Fmt.str "%a" Tabular.pp
      (Tabular.make ~header:[ "name"; "value" ]
         [ [ "alpha"; "1" ]; [ "beta-long"; "22" ] ])
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "contains header" true (contains out "name");
  check "aligned cell" true (contains out "beta-long");
  check "row padding" true (String.length out > 20)

let test_tabular_pads_short_rows () =
  let t = Tabular.make ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  let out = Fmt.str "%a" Tabular.pp t in
  check "renders" true (String.length out > 0)

(* ------------------------------------------------------------------ *)
(* End-to-end: the paper's pipeline on a second rule set *)

let test_end_to_end_tangle () =
  let entry = Rulesets.tangle in
  let p = Nca_surgery.Pipeline.regalize entry.instance entry.rules in
  check "pipeline ok" true p.complete;
  let t = Witness.analyze ~depth:4 ~e:entry.e p.final in
  let g = Nca_graph.Digraph.of_instance t.e t.full in
  let tournament = Nca_graph.Tournament.max_tournament_size g in
  let loop = Cq.holds t.full (Cq.loop_query t.e) in
  (* Theorem 1 finite shadow *)
  check "tangle: tournament ≥ 4 ⟹ loop" true (tournament < 4 || loop)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_theorem1_random_linear =
  QCheck.Test.make ~name:"Theorem 1 shadow on random linear bdd sets"
    ~count:20
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed ->
             Rulesets.random_forward_existential_rules ~seed ~rules:5)
           (int_range 0 10000)))
    (fun rules ->
      QCheck.assume (rules <> []);
      let i = Parser.instance "E(c0,c1), A(c0), B(c1)" in
      let v = Theorem1.validate ~max_depth:4 ~max_atoms:3000 ~e:e2 i rules in
      Theorem1.implication_holds ~threshold:4 v)

let prop_valley_shapes_total =
  QCheck.Test.make ~name:"every valley query has a shape" ~count:100
    (QCheck.make
       QCheck.Gen.(
         let term =
           map (fun i -> Term.var (Printf.sprintf "v%d" (abs i mod 4))) int
         in
         list_size (int_range 1 4)
           (map2 (fun s t -> e s t) term term)))
    (fun atoms ->
      match
        (try
           Some
             (Cq.make
                ~answer:
                  [ Term.var "v0"; Term.var "v1" ]
                atoms)
         with Invalid_argument _ -> None)
      with
      | None -> true
      | Some q ->
          if Valley.is_valley q then (
            ignore (Valley.shape q);
            true)
          else true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_theorem1_random_linear; prop_valley_shapes_total ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "core"
    [
      ( "valley",
        [
          tc "V shape" test_valley_basic;
          tc "single max" test_valley_single_max;
          tc "disconnected" test_valley_disconnected;
          tc "peak rejected" test_not_valley_peak;
          tc "cycle rejected" test_not_valley_cycle;
          tc "arity" test_not_valley_wrong_arity;
          tc "order graph" test_valley_order_graph;
          tc "lemma 42 functional" test_functional_lemma42;
          tc "defines tournament" test_defines_tournament;
          tc "prop 43 disconnected" test_loop_witness_disconnected_case;
        ] );
      ( "witness",
        [
          tc "dag (obs 35)" test_analysis_dag;
          tc "rewriting complete" test_analysis_rewriting_complete;
          tc "witnesses nonempty (obs 37)" test_observation37_witnesses_nonempty;
          tc "valley witness per edge (lemma 40)" test_valley_witness_every_edge;
          tc "peak removal decreases TSₘ" test_peak_removal_decreases;
          tc "edge coloring (prop 41)" test_color_edges;
          tc "monochromatic sub-tournament" test_monochromatic_subtournament;
        ] );
      ( "theorem1",
        [
          tc "example 1" test_theorem1_example1;
          tc "example 1 bdd" test_theorem1_example1_bdd;
          tc "zoo" test_theorem1_zoo_bdd_sets;
          tc "series monotone" test_theorem1_series_monotone;
          tc "tournament bound (question 46)" test_theorem1_tournament_bound;
          tc "all-pairs loop" test_all_pairs_tournament_with_loop;
        ] );
      ( "zoo",
        [
          tc "unique names" test_zoo_names_unique;
          tc "instances" test_zoo_instances_match_signatures;
          tc "find" test_zoo_find;
          tc "random rules" test_random_rules_shape;
          tc "random instances" test_random_instance_shape;
        ] );
      ( "tabular",
        [
          tc "renders" test_tabular_renders;
          tc "pads" test_tabular_pads_short_rows;
        ] );
      ( "definable",
        [
          tc "rules" test_definable_rules;
          tc "freshness" test_definable_freshness;
          tc "preserves bdd" test_definable_preserves_bdd;
          tc "zoo entry" test_definable_zoo_entry;
        ] );
      ("end-to-end", [ tc "tangle pipeline" test_end_to_end_tangle ]);
      ("qcheck", props);
    ]
