(* Tests for the analysis extensions: coloring & Conjecture 44, instance
   cores, derivation traces, DOT export, OBQA answering, and the
   rewriting-cover ablation. *)

open Nca_logic
module G = Nca_graph.Digraph.Term_graph
module Coloring = Nca_graph.Coloring
module Dot = Nca_graph.Dot
module Conjecture44 = Nca_core.Conjecture44
module Derivation = Nca_chase.Derivation
module Answering = Nca_rewriting.Answering
module Rulesets = Nca_core.Rulesets

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* homomorphisms both ways *)
let hom_equiv a b =
  Hom.exists (Instance.atoms a) b && Hom.exists (Instance.atoms b) a
let v i = Term.cst (Printf.sprintf "v%d" i)
let graph edges = G.of_edges (List.map (fun (i, j) -> (v i, v j)) edges)
let e2 = Symbol.make "E" 2

(* ------------------------------------------------------------------ *)
(* Coloring *)

let test_coloring_bipartite () =
  let g = graph [ (1, 2); (3, 2); (1, 4); (3, 4) ] in
  check "2-colorable" true (Coloring.is_k_colorable 2 g);
  check "not 1-colorable" false (Coloring.is_k_colorable 1 g);
  check "χ = 2" true (Coloring.chromatic_number g = Some 2)

let test_coloring_triangle () =
  let g = graph [ (1, 2); (2, 3); (3, 1) ] in
  check "χ = 3" true (Coloring.chromatic_number g = Some 3);
  check "not 2-colorable" false (Coloring.is_k_colorable 2 g)

let test_coloring_odd_cycle () =
  (* C5: χ = 3 though the largest tournament has size 2 — the Erdős
     phenomenon in miniature *)
  let g = graph [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 1) ] in
  check "χ(C5) = 3" true (Coloring.chromatic_number g = Some 3);
  check_int "tournament only 2" 2 (Coloring.clique_lower_bound g)

let test_coloring_loop () =
  let g = graph [ (1, 1) ] in
  check "loops kill colorability" true (Coloring.chromatic_number g = None);
  check "greedy agrees" true (Coloring.greedy_chromatic g = None);
  check "no k works" false (Coloring.is_k_colorable 5 g)

let test_coloring_both_directions () =
  (* u ↔ w is one closure edge, not two *)
  let g = graph [ (1, 2); (2, 1) ] in
  check "χ = 2" true (Coloring.chromatic_number g = Some 2)

let test_coloring_witness_proper () =
  let g = graph [ (1, 2); (2, 3); (3, 1); (3, 4) ] in
  match Coloring.coloring 3 g with
  | None -> Alcotest.fail "expected a 3-coloring"
  | Some assignment ->
      List.iter
        (fun (x, cx) ->
          List.iter
            (fun (y, cy) ->
              if
                (not (Term.equal x y))
                && (G.has_edge x y g || G.has_edge y x g)
              then check "proper" false (cx = cy))
            assignment)
        assignment

let test_greedy_upper_bound () =
  let g = graph [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 1) ] in
  match (Coloring.greedy_chromatic g, Coloring.chromatic_number g) with
  | Some greedy, Some exact -> check "greedy ≥ exact" true (greedy >= exact)
  | _ -> Alcotest.fail "expected colorable"

(* ------------------------------------------------------------------ *)
(* Conjecture 44 explorer *)

let test_c44_example1 () =
  let entry = Rulesets.example1 in
  let points =
    Conjecture44.series ~max_depth:4 ~e:entry.e entry.instance entry.rules
  in
  check "χ grows with the order" true
    (List.exists
       (fun (p : Conjecture44.point) ->
         match p.chromatic with Some k -> k >= 4 | None -> false)
       points);
  check "χ matches tournament on transitive chains" true
    (List.for_all
       (fun (p : Conjecture44.point) ->
         match p.chromatic with
         | Some k -> k = p.tournament
         | None -> p.loop)
       points);
  check "consistent with C44" true (Conjecture44.verdict points = `Consistent)

let test_c44_loop_infinite_chromatic () =
  let entry = Rulesets.example1_bdd in
  let points =
    Conjecture44.series ~max_depth:3 ~e:entry.e entry.instance entry.rules
  in
  check "after the loop, χ is undefined" true
    (List.exists
       (fun (p : Conjecture44.point) -> p.loop && p.chromatic = None)
       points)

let test_c44_zoo_consistent () =
  List.iter
    (fun name ->
      let entry = Rulesets.find name in
      let points =
        Conjecture44.series ~max_depth:3 ~e:entry.e entry.instance entry.rules
      in
      check (name ^ " C44-consistent") true
        (Conjecture44.verdict points = `Consistent))
    [ "example1_bdd"; "dense"; "succ_only"; "symmetric"; "tangle" ]

(* ------------------------------------------------------------------ *)
(* Instance cores *)

let test_core_collapses_redundancy () =
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  let e s t = Atom.app "E" [ s; t ] in
  (* E(x,y) ∧ E(x,z): z-branch retracts onto y-branch *)
  let i = Instance.of_list [ e x y; e x z ] in
  let c = Core.core i in
  check_int "one atom" 1 (Instance.cardinal c);
  check "equivalent to original" true (hom_equiv i c)

let test_core_of_core_is_core () =
  let x = Term.var "x" and y = Term.var "y" in
  let e s t = Atom.app "E" [ s; t ] in
  let i = Instance.of_list [ e x y; e y x ] in
  let c = Core.core i in
  check "idempotent" true (Instance.equal (Core.core c) c);
  check "is_core" true (Core.is_core c)

let test_core_constants_fixed () =
  let i = Parser.instance "E(a,b), E(a,c)" in
  (* constants are rigid: nothing retracts *)
  check "ground instances are cores" true (Core.is_core i);
  check_int "unchanged" 2 (Instance.cardinal (Core.core i))

let test_core_equivalence_decision () =
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  let e s t = Atom.app "E" [ s; t ] in
  let single = Instance.of_list [ e x y ] in
  let fan = Instance.of_list [ e x y; e x z; e (Term.var "u") y ] in
  check "fan ≡ edge via cores" true (Core.equivalent_via_cores single fan);
  let loop = Instance.of_list [ e x x ] in
  check "loop ≢ edge" false (Core.equivalent_via_cores single loop)

let test_core_loop_absorbs () =
  let x = Term.var "x" and y = Term.var "y" in
  let e s t = Atom.app "E" [ s; t ] in
  (* an edge next to a loop retracts onto the loop *)
  let i = Instance.of_list [ e x x; e x y ] in
  check_int "core is the loop" 1 (Instance.cardinal (Core.core i))

(* ------------------------------------------------------------------ *)
(* Derivation traces *)

let test_derivation_of_database_term () =
  let entry = Rulesets.example1 in
  let chase = Nca_chase.Chase.run ~max_depth:3 entry.instance entry.rules in
  let d = Derivation.of_term chase (Term.cst "a") in
  check "database term has no rule" true (d.rule = None);
  check_int "depth 0" 0 (Derivation.depth d)

let test_derivation_of_null () =
  (* succ_only: the only derivations are chains, so trace depth equals
     the timestamp *)
  let entry = Rulesets.succ_only in
  let chase = Nca_chase.Chase.run ~max_depth:3 entry.instance entry.rules in
  let deep =
    Term.Set.fold
      (fun t acc ->
        match acc with
        | Some _ -> acc
        | None ->
            if Nca_chase.Chase.timestamp chase t = Some 3 then Some t
            else None)
      (Nca_chase.Chase.invented chase)
      None
  in
  match deep with
  | None -> Alcotest.fail "expected a level-3 null"
  | Some t ->
      let d = Derivation.of_term chase t in
      check_int "depth 3" 3 (Derivation.depth d);
      check "uses succ" true
        (List.mem "succ" (List.map Rule.name (Derivation.rules_used d)));
      let rendered = Fmt.str "%a" (Derivation.pp ~rules:entry.rules) d in
      check "pp renders" true (String.length rendered > 10)

(* ------------------------------------------------------------------ *)
(* DOT export *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_dot_graph () =
  let g = graph [ (1, 2) ] in
  let dot = Dot.of_graph ~name:"test" g in
  check "digraph header" true (contains dot "digraph \"test\"");
  check "edge rendered" true (contains dot "\"v1\" -> \"v2\"")

let test_dot_highlight () =
  let g = graph [ (1, 2) ] in
  let dot = Dot.of_graph ~highlight:(Term.Set.singleton (v 1)) g in
  check "highlight style" true (contains dot "lightblue")

let test_dot_instance () =
  let i = Parser.instance "E(a,b), F(b,c)" in
  let dot = Dot.of_instance ~e:e2 i in
  check "only E edges" true (contains dot "\"a\" -> \"b\"");
  check "F not an edge" false (contains dot "\"b\" -> \"c\"")

let test_dot_cq () =
  let q =
    Cq.make
      ~answer:[ Term.var "x"; Term.var "y" ]
      [ Atom.app "E" [ Term.var "z"; Term.var "x" ];
        Atom.app "E" [ Term.var "z"; Term.var "y" ] ]
  in
  let dot = Dot.of_cq q in
  check "answers boxed" true (contains dot "\"x\" [shape=box]");
  check "existential ellipse" true (contains dot "\"z\" [shape=ellipse]");
  check "labelled edges" true (contains dot "label=\"E\"")

(* ------------------------------------------------------------------ *)
(* OBQA answering *)

let obqa_rules =
  Parser.parse_rules
    {| k: Person(x) -> Knows(x,y).
       p: Knows(x,y) -> Person(y). |}

let obqa_db = Parser.instance "Person(ann), Knows(bob, ann)"

let test_answers_via_chase () =
  let q = Parser.query "?(x) Person(x)" in
  let answers = Answering.answers_via_chase obqa_rules obqa_db q in
  (* ann is given; bob only *knows*, nothing makes him a person; the
     invented acquaintances are nulls and not certain answers *)
  check_int "only ann" 1 (List.length answers);
  check "no nulls among answers" true
    (List.for_all (List.for_all Term.is_cst) answers)

let test_answers_via_rewriting () =
  let q = Parser.query "?(x) Person(x)" in
  match Answering.answers_via_rewriting obqa_rules obqa_db q with
  | None -> Alcotest.fail "rewriting should be complete"
  | Some answers -> check_int "only ann" 1 (List.length answers)

let test_methods_agree () =
  List.iter
    (fun src ->
      let q = Parser.query src in
      check (src ^ " agrees") true
        (Answering.methods_agree obqa_rules obqa_db q = Some true))
    [ "?(x) Person(x)"; "?(x) Knows(x,y)"; "? Knows(x,y), Person(y)" ]

let test_entails_boolean () =
  check "somebody knows somebody" true
    (Answering.entails obqa_rules obqa_db (Parser.query "? Knows(x,y)"));
  check "nobody knows ann's friend... wrong pattern" false
    (Answering.entails obqa_rules obqa_db (Parser.query "? Lab(x)"))

let test_rewrite_composed () =
  (* Lemma 5 needs Ch(Ch(I,R₁),R₂) ↔ Ch(I,R₁∪R₂): here R₁ = F⇒E feeds
     R₂ = symmetry, so rewriting first against R₂ then against R₁ is a
     rewriting for the union *)
  let r1 = Parser.parse_rules "f: F(x,y) -> E(x,y)." in
  let r2 = Parser.parse_rules "sym: E(x,y) -> E(y,x)." in
  let q = Cq.atom_query e2 in
  let composed = Answering.rewrite_composed r1 r2 q in
  check "complete" true composed.complete;
  (* E(x,y) ∨ E(y,x) ∨ F(x,y) ∨ F(y,x) *)
  check_int "four disjuncts" 4 (Ucq.size composed.ucq);
  (* matches the direct rewriting against the union (Lemma 5) *)
  let direct = Nca_rewriting.Rewrite.rewrite (r1 @ r2) q in
  check "equivalent to union rewriting" true
    (Ucq.equivalent composed.ucq direct.ucq);
  (* with the roles swapped the commutation hypothesis fails and the
     composition may genuinely miss disjuncts — Lemma 5's hypothesis is
     not decorative *)
  let swapped = Answering.rewrite_composed r2 r1 q in
  check "swapped composition is weaker" true
    (Ucq.size swapped.ucq < Ucq.size composed.ucq)

(* ------------------------------------------------------------------ *)
(* Rewriting-cover ablation *)

let test_minimize_ablation () =
  let entry = Rulesets.symmetric in
  let q = Cq.atom_query e2 in
  let cover = Nca_rewriting.Rewrite.rewrite entry.rules q in
  let no_cover =
    Nca_rewriting.Rewrite.rewrite ~minimize:false entry.rules q
  in
  check "both complete" true (cover.complete && no_cover.complete);
  check "same final cover" true (Ucq.equivalent cover.ucq no_cover.ucq)

let test_minimize_ablation_generates_more () =
  let entry = Rulesets.example1_bdd in
  let q = Cq.atom_query e2 in
  let cover = Nca_rewriting.Rewrite.rewrite ~max_rounds:6 entry.rules q in
  let no_cover =
    Nca_rewriting.Rewrite.rewrite ~max_rounds:6 ~minimize:false entry.rules q
  in
  check "no-cover generates at least as much" true
    (no_cover.generated >= cover.generated)

(* ------------------------------------------------------------------ *)
(* Question 46 audit *)

let test_q46_loop_free_within_bound () =
  let a = Nca_core.Question46.audit ~depth:3 Rulesets.succ_only in
  check "bdd" true a.bdd;
  check "loop-free" false a.loop;
  check "within bound" true a.within_bound;
  check "rewriting nonempty" true (a.rewriting_disjuncts > 0)

let test_q46_loop_case () =
  let a = Nca_core.Question46.audit ~depth:3 Rulesets.example1_bdd in
  check "loop" true a.loop;
  check "vacuously within" true a.within_bound;
  let rendered = Fmt.str "%a" Nca_core.Question46.pp a in
  check "pp" true (String.length rendered > 10)

(* ------------------------------------------------------------------ *)
(* Critical instance *)

let test_critical_instance () =
  let sign = Symbol.Set.of_list [ e2; Symbol.make "A" 1 ] in
  let i = Instance.critical sign in
  check_int "one atom per predicate" 2 (Instance.cardinal i);
  check_int "single constant" 1 (Term.Set.cardinal (Instance.adom i));
  check "E loop present" true (Cq.holds i (Cq.loop_query e2))

let test_critical_detects_nontermination_direction () =
  (* the chase of the critical instance saturates for datalog... *)
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let i = Instance.critical (Rule.signature rules) in
  let c = Nca_chase.Chase.run ~max_depth:5 i rules in
  check "datalog critical chase saturates" true c.saturated

(* ------------------------------------------------------------------ *)

let prop_chromatic_at_least_tournament =
  QCheck.Test.make ~name:"χ ≥ max tournament" ~count:40
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed ->
             Rulesets.random_instance ~seed ~constants:5 ~atoms:8
               (Symbol.Set.singleton e2))
           (int_range 0 5000)))
    (fun i ->
      let g = Nca_graph.Digraph.of_instance e2 i in
      match Coloring.chromatic_number g with
      | None -> Nca_graph.Digraph.Term_graph.has_loop g
      | Some chi -> chi >= Nca_graph.Tournament.max_tournament_size g)

let prop_core_equivalent =
  QCheck.Test.make ~name:"core ≡ original" ~count:40
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed ->
             (* variables, not constants, so retraction has room to act *)
             Instance.generalize
               (Rulesets.random_instance ~seed ~constants:4 ~atoms:6
                  (Symbol.Set.singleton e2)))
           (int_range 0 5000)))
    (fun i ->
      QCheck.assume (not (Instance.is_empty i));
      let c = Core.core i in
      hom_equiv i c && Core.is_core c)

(* ------------------------------------------------------------------ *)
(* Lint engine: one triggering and one non-triggering fixture per
   diagnostic code, plus JSON round-trips and the exit-status policy. *)

module Lint = Nca_analysis.Lint
module Diag = Nca_analysis.Diagnostic
module Ajson = Nca_analysis.Json
module Pipeline = Nca_surgery.Pipeline

let has_code code ds = List.exists (fun (d : Diag.t) -> d.code = code) ds

(* (code, triggering source, non-triggering source). NCA002 and NCA013
   cannot be provoked from source text (the parser rejects arity drift
   and pipeline invariants need a pipeline run); they get their own
   tests below. *)
let lint_fixtures =
  [
    ("NCA001", "r: E(x,", "E(a,b).");
    ("NCA003", "r: A(x) -> E(x,y).", "r: E(x,y) -> A(x).");
    ( "NCA004",
      "a: P(x) -> Q(x). b: Q(x) -> P(x).",
      "a: E(x,y) -> P(x). b: P(x) -> Q(x)." );
    ( "NCA005",
      "r: E(x,y) -> A(x). ?(x,y) E(x,y).",
      "r: E(x,y) -> A(x). ?(x) A(x)." );
    ( "NCA006",
      "gen: E(x,y) -> B(x). spec: E(x,x) -> B(x).",
      "a: E(x,y) -> B(x). b: F(x,y) -> B(x)." );
    ("NCA007", "g: A(x) -> E(x,y), A(y).", "t: E(x,y) -> A(x).");
    ("NCA008", "r: E(x,y) -> E(z,x).", "r: E(x,y) -> E(y,z).");
    ( "NCA009",
      "r: A(x) -> E(x,y), E(y,z).",
      "r: A(x) -> E(x,y), F(y,z)." );
    ( "NCA010",
      "g: A(x) -> E(x,y), A(y).",
      (* predicate-level feedback exists here (E feeds B feeds r1), but
         the classifier certifies termination, so the pass stays silent *)
      "r1: A(x), B(x) -> E(x,z). r2: E(x,z) -> B(z)." );
    ("NCA011", "r: E(x,y) -> E(x,x).", "r: E(x,y) -> E(y,x).");
    ("NCA012", "r: R(x,y,z) -> A(x).", "r: E(x,y) -> A(x).");
    ("NCA014", "g: A(x) -> E(x,y), A(y).", "r: A(x) -> E(x,y).");
    ("NCA015", "g: A(x) -> E(x,y), A(y).", "r: A(x) -> E(x,y).");
    ("NCA016", "g: A(x) -> E(x,y), A(y).", "r: A(x) -> E(x,y).");
    ( "NCA017",
      "g: A(x) -> E(x,y), A(y).",
      (* not acyclic in any static sense, but MFA-terminating: no
         pumping witness exists *)
      "r1: A(x) -> E(x,z), E(z,x). r2: E(y,y) -> A(y)." );
    ( "NCA018",
      "r: A(x) -> E(x,y).",
      (* Datalog-only termination is trivial and stays unreported *)
      "tc: E(x,y), E(y,z) -> E(x,z)." );
    ( "NCA019",
      "r: E(x,y) -> E(y,x). r: E(x,y) -> B(x).",
      "r: E(x,y) -> E(y,x). s: E(x,y) -> B(x)." );
  ]

let test_lint_fixture_table () =
  List.iter
    (fun (code, pos, neg) ->
      check (code ^ " fires on its fixture") true
        (has_code code (Lint.lint_source pos));
      check (code ^ " stays silent on the negative fixture") false
        (has_code code (Lint.lint_source neg)))
    lint_fixtures

let test_lint_duplicate_label () =
  let diags =
    Lint.lint_source "r: E(x,y) -> E(y,x). r: E(x,y) -> B(x). r: B(x) -> A(x)."
    |> List.filter (fun (d : Diag.t) -> d.code = "NCA019")
  in
  check_int "one warning per later use" 2 (List.length diags);
  List.iter
    (fun (d : Diag.t) ->
      check "warning" true (d.severity = Diag.Warning);
      check "points at the first use" true
        (d.certificate = Some "first labelled r: rule #0"))
    diags;
  check "at the later rules" true
    (List.map (fun (d : Diag.t) -> d.location) diags
    = [
        Diag.Rule_site { name = "r"; index = 1 };
        Diag.Rule_site { name = "r"; index = 2 };
      ])

let test_lint_arity_drift () =
  (* the parser itself enforces a consistent signature, so an NCA002
     program has to be assembled through the API *)
  let p1 = Symbol.make "P" 1 and p2 = Symbol.make "P" 2 in
  let a1 = Symbol.make "A" 1 in
  let x = Term.var "x" and y = Term.var "y" in
  let r1 = Rule.make ~name:"r1" [ Atom.make p1 [ x ] ] [ Atom.make a1 [ x ] ] in
  let r2 =
    Rule.make ~name:"r2" [ Atom.make p2 [ x; y ] ] [ Atom.make a1 [ x ] ]
  in
  let drifting =
    { Parser.facts = Instance.empty; rules = [ r1; r2 ]; queries = [] }
  in
  check "NCA002 fires on P/1 vs P/2" true (has_code "NCA002" (Lint.run drifting));
  let consistent =
    { Parser.facts = Instance.empty; rules = [ r1 ]; queries = [] }
  in
  check "NCA002 silent on a consistent signature" false
    (has_code "NCA002" (Lint.run consistent))

let test_lint_parse_error_span () =
  match Lint.lint_source "E(a,b).\nr: E(x," with
  | [ d ] -> (
      check "NCA001" true (d.Diag.code = "NCA001");
      check "severity error" true (d.Diag.severity = Diag.Error);
      match d.Diag.location with
      | Diag.Span { line; column } ->
          check "line 2" true (line = 2);
          check "positive column" true (column > 0)
      | _ -> Alcotest.fail "expected a Span location")
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_lint_pipeline_invariants () =
  let entry = Nca_core.Rulesets.example1_bdd in
  let ok = Pipeline.regalize entry.instance entry.rules in
  check "clean pipeline has no violated invariant" true
    (Lint.of_pipeline ok = []);
  let starved = Pipeline.regalize ~max_rounds:0 entry.instance entry.rules in
  let ds = Lint.of_pipeline starved in
  check "starved rewriting budget reports NCA013" true (has_code "NCA013" ds);
  check "budget exhaustion is a warning, not an error" true
    (List.exists
       (fun (d : Diag.t) ->
         d.code = "NCA013" && d.severity = Diag.Warning)
       ds)

let test_lint_json_roundtrip () =
  let source =
    "E(a,b). grow: A(x) -> E(x,y), A(y). loopy: E(x,y) -> E(x,x). ?(x) A(x)."
  in
  let ds = Lint.lint_source source in
  check "fixture produced diagnostics" true (ds <> []);
  List.iter
    (fun d ->
      check "diagnostic JSON round-trips" true
        (Diag.of_json (Diag.to_json d) = Some d))
    ds;
  (* the whole --json document parses back and keeps every diagnostic *)
  match Ajson.parse (Ajson.to_string (Lint.report_to_json ds)) with
  | Error e -> Alcotest.failf "report does not re-parse: %s" e
  | Ok doc -> (
      check "version 1" true
        (Option.bind (Ajson.member "version" doc) Ajson.to_int = Some 1);
      match Option.bind (Ajson.member "diagnostics" doc) Ajson.to_list with
      | None -> Alcotest.fail "missing diagnostics array"
      | Some vs ->
          check_int "same cardinality" (List.length ds) (List.length vs);
          List.iter2
            (fun d v ->
              check "array entry round-trips" true (Diag.of_json v = Some d))
            ds vs)

let test_lint_exit_status () =
  let diag severity =
    Diag.make ~code:"NCA999" ~severity ~location:Diag.Program "synthetic"
  in
  check_int "clean exits 0" 0 (Lint.exit_status []);
  check_int "an error exits 1" 1 (Lint.exit_status [ diag Diag.Error ]);
  check_int "warnings alone exit 0" 0 (Lint.exit_status [ diag Diag.Warning ]);
  check_int "infos alone exit 0" 0 (Lint.exit_status [ diag Diag.Info ]);
  check_int "--max-warnings 0 turns warnings fatal" 1
    (Lint.exit_status ~max_warnings:0 [ diag Diag.Warning ]);
  check_int "--max-warnings 1 tolerates one" 0
    (Lint.exit_status ~max_warnings:1 [ diag Diag.Warning ])

let test_lint_select () =
  let source = "g: A(x) -> E(x,y), A(y). loopy: E(x,y) -> E(x,x)." in
  let ds = Lint.lint_source ~select:[ "NCA011" ] source in
  check "selected code fires" true (has_code "NCA011" ds);
  check "unselected codes suppressed" true
    (List.for_all (fun (d : Diag.t) -> d.code = "NCA011") ds)

(* ------------------------------------------------------------------ *)
(* Termination classifier: the acyclicity hierarchy, certificate
   checking (including rejection of corrupted certificates), and the
   differential oracle — every Terminating verdict is confirmed by an
   actual budgeted chase of the critical instance. *)

module T = Nca_analysis.Termination

let check_ok what = function
  | Ok () -> ()
  | Error reason -> Alcotest.failf "%s: certificate rejected: %s" what reason

let check_rejected what = function
  | Ok () -> Alcotest.failf "%s: corrupted certificate accepted" what
  | Error _ -> ()

(* the sources of examples/programs/{ja_demo,mirror}.nca, inline so the
   unit tests do not depend on the example corpus *)
let ja_demo_rules =
  Parser.parse_rules "r1: A(x), B(x) -> E(x,z). r2: E(x,z) -> B(z)."

let mirror_rules =
  Parser.parse_rules "r1: A(x) -> E(x,z), E(z,x). r2: E(y,y) -> A(y)."

let test_classify_datalog () =
  let t = T.classify (Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z).") in
  (match t.T.verdict with
  | T.Terminating (T.Datalog, T.Datalog_cert) -> ()
  | v -> Alcotest.failf "expected datalog verdict, got %a" (T.pp_verdict t.T.rules) v);
  check "JA holds" true t.T.jointly_acyclic;
  check "SWA holds" true t.T.super_weakly_acyclic;
  check "MFA holds" true (t.T.mfa = Some true)

let test_classify_weakly_acyclic () =
  let rules = Parser.parse_rules "r: A(x) -> E(x,y). s: E(x,y) -> B(y)." in
  let t = T.classify rules in
  match t.T.verdict with
  | T.Terminating (T.Weak_acyclicity, T.Ranking _) as v ->
      check_ok "WA ranking" (T.check rules v)
  | v ->
      Alcotest.failf "expected weak-acyclicity, got %a" (T.pp_verdict rules) v

let test_classify_jointly_acyclic () =
  let t = T.classify ja_demo_rules in
  check "not weakly acyclic" false t.T.classes.Nca_surgery.Classes.weakly_acyclic;
  match t.T.verdict with
  | T.Terminating (T.Joint_acyclicity, T.Ja_order _) as v ->
      check_ok "JA order" (T.check ja_demo_rules v)
  | v ->
      Alcotest.failf "expected joint-acyclicity, got %a"
        (T.pp_verdict ja_demo_rules) v

let test_classify_mfa () =
  (* every static criterion fails on mirror, yet the critical-instance
     chase saturates: only the dynamic test certifies termination *)
  let t = T.classify mirror_rules in
  check "not jointly acyclic" false t.T.jointly_acyclic;
  check "not super-weakly acyclic" false t.T.super_weakly_acyclic;
  match t.T.verdict with
  | T.Terminating (T.Mfa, T.Critical_chase run) as v ->
      check_ok "critical chase" (T.check mirror_rules v);
      (match run.T.mfa_proof with
      | None -> Alcotest.fail "expected a derivation proof on the chase"
      | Some p ->
          let critical = Instance.critical (Rule.signature mirror_rules) in
          check "proof replays against the critical instance" true
            (Nca_provenance.Proof.check ~rules:mirror_rules ~input:critical p
            = Ok ()))
  | v -> Alcotest.failf "expected mfa, got %a" (T.pp_verdict mirror_rules) v

let test_classify_example1_diverges () =
  (* the paper's Example 1 is not weakly acyclic and its semi-oblivious
     chase genuinely diverges — the classifier must find the pumping
     witness, not an MFA certificate *)
  let entry = Rulesets.example1 in
  let t = T.classify entry.Rulesets.rules in
  match t.T.verdict with
  | T.Non_terminating w as v ->
      check_ok "pumping witness" (T.check entry.Rulesets.rules v);
      check "witness names a rule of the set" true
        (w.T.w_rule >= 0 && w.T.w_rule < List.length entry.Rulesets.rules)
  | v ->
      Alcotest.failf "expected divergence, got %a"
        (T.pp_verdict entry.Rulesets.rules) v

let test_classify_cascade_cyclic_term () =
  let rules = Parser.parse_rules "g: A(x) -> E(x,y), A(y)." in
  let t = T.classify rules in
  check "cyclic term found" true (Option.is_some t.T.cyclic_term);
  check "MFA fails" true (t.T.mfa = Some false);
  match t.T.verdict with
  | T.Non_terminating _ -> ()
  | v -> Alcotest.failf "expected divergence, got %a" (T.pp_verdict rules) v

let test_corrupted_certificates_rejected () =
  let wa_rules = Parser.parse_rules "r: A(x) -> E(x,y)." in
  (* a flat ranking violates ρ(s) < ρ(t) on the special edges *)
  let positions =
    match T.classify wa_rules with
    | { T.verdict = T.Terminating (_, T.Ranking l); _ } -> List.map fst l
    | _ -> Alcotest.fail "fixture is weakly acyclic"
  in
  check_rejected "flat ranking"
    (T.check wa_rules
       (T.Terminating
          (T.Weak_acyclicity, T.Ranking (List.map (fun p -> (p, 0)) positions))));
  (* a ranking on a genuinely non-WA set can never verify *)
  check_rejected "ranking on a non-WA set"
    (T.check ja_demo_rules (T.Terminating (T.Weak_acyclicity, T.Ranking [])));
  (* reversing a topological order breaks the edge constraint *)
  (match T.classify ja_demo_rules with
  | { T.verdict = T.Terminating (T.Joint_acyclicity, T.Ja_order order); _ }
    ->
      check_rejected "JA order on the wrong rule set"
        (T.check mirror_rules
           (T.Terminating (T.Joint_acyclicity, T.Ja_order order)))
  | _ -> Alcotest.fail "fixture is jointly acyclic");
  (* tampering with the recorded chase bounds must not replay *)
  (match T.classify mirror_rules with
  | { T.verdict = T.Terminating (T.Mfa, T.Critical_chase run); _ } ->
      check_rejected "inflated atom count"
        (T.check mirror_rules
           (T.Terminating
              (T.Mfa, T.Critical_chase { run with T.mfa_atoms = run.T.mfa_atoms + 5 })))
  | _ -> Alcotest.fail "fixture is mfa-terminating");
  (* a witness over a terminating rule set must be refuted *)
  let x = Term.var "x" and y = Term.var "y" in
  check_rejected "fabricated witness"
    (T.check wa_rules
       (T.Non_terminating
          { T.w_rule = 0; w_var = x; w_hom = Subst.of_list [ (x, y) ] }))

let test_classifier_matches_goldens_corpus () =
  (* differential oracle: every Terminating verdict over the zoo is
     confirmed by actually chasing the critical instance to saturation
     under a generous independent budget *)
  let generous = Nca_obs.Budget.v ~max_depth:30 ~max_atoms:100_000 () in
  List.iter
    (fun (e : Rulesets.entry) ->
      match (T.classify e.Rulesets.rules).T.verdict with
      | T.Terminating _ ->
          let critical = Instance.critical (Rule.signature e.Rulesets.rules) in
          let c =
            Nca_chase.Chase.run ~variant:Nca_chase.Chase.Semi_oblivious
              ~max_depth:1_000_000 ~max_atoms:1_000_000 ~budget:generous
              critical e.Rulesets.rules
          in
          check
            (Fmt.str "%s: certified termination confirmed by the chase"
               e.Rulesets.name)
            true c.Nca_chase.Chase.saturated;
          (* Datalog entries double-checked against the saturation engine *)
          if List.for_all Rule.is_datalog e.Rulesets.rules then
            check
              (Fmt.str "%s: Datalog.saturate agrees" e.Rulesets.name)
              true
              (match Nca_chase.Datalog.saturate critical e.Rulesets.rules with
              | Ok _ -> true
              | Error _ -> false)
      | T.Non_terminating _ | T.Unknown _ -> ())
    Rulesets.zoo

let prop_hierarchy_containment =
  QCheck.Test.make ~name:"WA ⇒ JA ⇒ SWA; terminating ⇒ chase saturates"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed ->
             Rulesets.random_forward_existential_rules ~seed ~rules:6)
           (int_range 0 5000)))
    (fun rules ->
      QCheck.assume (rules <> []);
      (* classify re-checks its own certificate internally, so a bogus
         emission would raise here and fail the property *)
      let t = T.classify rules in
      let wa = t.T.classes.Nca_surgery.Classes.weakly_acyclic in
      let chase_saturates () =
        let critical = Instance.critical (Rule.signature rules) in
        let c =
          Nca_chase.Chase.run ~variant:Nca_chase.Chase.Semi_oblivious
            ~max_depth:1_000_000 ~max_atoms:1_000_000
            ~budget:(Nca_obs.Budget.v ~max_depth:30 ~max_atoms:100_000 ())
            critical rules
        in
        c.Nca_chase.Chase.saturated
      in
      (not wa || t.T.jointly_acyclic)
      && ((not t.T.jointly_acyclic) || t.T.super_weakly_acyclic)
      && ((not t.T.super_weakly_acyclic) || t.T.mfa <> Some false)
      &&
      match t.T.verdict with
      | T.Terminating _ -> chase_saturates ()
      | T.Non_terminating _ | T.Unknown _ -> true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_chromatic_at_least_tournament; prop_core_equivalent;
      prop_hierarchy_containment;
    ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "analysis"
    [
      ( "coloring",
        [
          tc "bipartite" test_coloring_bipartite;
          tc "triangle" test_coloring_triangle;
          tc "odd cycle (Erdős in miniature)" test_coloring_odd_cycle;
          tc "loop" test_coloring_loop;
          tc "bidirectional edge" test_coloring_both_directions;
          tc "witness proper" test_coloring_witness_proper;
          tc "greedy bound" test_greedy_upper_bound;
        ] );
      ( "conjecture44",
        [
          tc "example1 profile" test_c44_example1;
          tc "loop ⇒ no coloring" test_c44_loop_infinite_chromatic;
          tc "zoo consistent" test_c44_zoo_consistent;
        ] );
      ( "cores",
        [
          tc "collapse" test_core_collapses_redundancy;
          tc "idempotent" test_core_of_core_is_core;
          tc "constants fixed" test_core_constants_fixed;
          tc "equivalence decision" test_core_equivalence_decision;
          tc "loop absorbs" test_core_loop_absorbs;
        ] );
      ( "derivation",
        [
          tc "database term" test_derivation_of_database_term;
          tc "null trace" test_derivation_of_null;
        ] );
      ( "dot",
        [
          tc "graph" test_dot_graph;
          tc "highlight" test_dot_highlight;
          tc "instance" test_dot_instance;
          tc "query" test_dot_cq;
        ] );
      ( "answering",
        [
          tc "chase answers" test_answers_via_chase;
          tc "rewriting answers" test_answers_via_rewriting;
          tc "methods agree (prop 4)" test_methods_agree;
          tc "boolean entailment" test_entails_boolean;
          tc "composed rewriting (lemma 5)" test_rewrite_composed;
        ] );
      ( "ablation",
        [
          tc "cover vs no-cover agree" test_minimize_ablation;
          tc "no-cover generates more" test_minimize_ablation_generates_more;
        ] );
      ( "question46",
        [
          tc "loop-free within bound" test_q46_loop_free_within_bound;
          tc "loop case" test_q46_loop_case;
        ] );
      ( "critical",
        [
          tc "shape" test_critical_instance;
          tc "datalog saturation" test_critical_detects_nontermination_direction;
        ] );
      ( "termination",
        [
          tc "datalog" test_classify_datalog;
          tc "weak acyclicity + ranking" test_classify_weakly_acyclic;
          tc "joint acyclicity (ja_demo)" test_classify_jointly_acyclic;
          tc "mfa with proof (mirror)" test_classify_mfa;
          tc "example1 diverges with witness" test_classify_example1_diverges;
          tc "cyclic term (cascade core)" test_classify_cascade_cyclic_term;
          tc "corrupted certificates rejected"
            test_corrupted_certificates_rejected;
          tc "differential oracle over the zoo"
            test_classifier_matches_goldens_corpus;
        ] );
      ( "lint",
        [
          tc "fixture table (pos/neg per code)" test_lint_fixture_table;
          tc "arity drift (NCA002)" test_lint_arity_drift;
          tc "duplicate labels (NCA019)" test_lint_duplicate_label;
          tc "parse error span (NCA001)" test_lint_parse_error_span;
          tc "pipeline invariants (NCA013)" test_lint_pipeline_invariants;
          tc "JSON round-trip" test_lint_json_roundtrip;
          tc "exit status policy" test_lint_exit_status;
          tc "--select filtering" test_lint_select;
        ] );
      ("qcheck", props);
    ]
