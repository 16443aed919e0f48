(* Experiment harness: regenerates every table (T1–T11, A1–A2) and
   figure (F1–F5) of EXPERIMENTS.md. Engine timings live in perf.exe.

   Usage:
     main.exe             run everything
     main.exe t3 f1       run selected experiments
*)

open Nca_logic
module Chase = Nca_chase.Chase
module Rewrite = Nca_rewriting.Rewrite
module Injective = Nca_rewriting.Injective
module Bdd = Nca_rewriting.Bdd
module Pipeline = Nca_surgery.Pipeline
module Properties = Nca_surgery.Properties
module Rulesets = Nca_core.Rulesets
module Theorem1 = Nca_core.Theorem1
module Witness = Nca_core.Witness
module Valley = Nca_core.Valley
module Tabular = Nca_core.Tabular
module Tournament = Nca_graph.Tournament
module Ramsey = Nca_graph.Ramsey

let yesno b = if b then "yes" else "no"

(* ------------------------------------------------------------------ *)
(* T1 / T2: Example 1 and its bdd repair, level by level *)

let series_rows (entry : Rulesets.entry) depth =
  Theorem1.series ~max_depth:depth ~e:entry.e entry.instance entry.rules
  |> List.map (fun (p : Theorem1.point) ->
         [
           string_of_int p.level;
           string_of_int p.level_atoms;
           string_of_int p.level_tournament;
           yesno p.level_loop;
         ])

let t1 () =
  Tabular.print
    ~title:
      "T1 — Example 1 (succ + transitivity, NOT bdd): tournaments grow, no \
       loop"
    ~header:[ "level"; "atoms"; "max tournament"; "loop" ]
    (series_rows Rulesets.example1 5)

let t2 () =
  Tabular.print
    ~title:
      "T2 — Example 1 repaired to bdd (succ + two-hop): loop forced \
       (Theorem 1)"
    ~header:[ "level"; "atoms"; "max tournament"; "loop" ]
    (series_rows Rulesets.example1_bdd 4)

(* ------------------------------------------------------------------ *)
(* T3: Theorem 1 sweep over the zoo *)

let t3 () =
  let rows =
    List.map
      (fun (entry : Rulesets.entry) ->
        let bdd =
          Bdd.certified
            (Bdd.for_signature ~max_rounds:8 entry.rules
               (Rule.signature entry.rules))
        in
        let v =
          Theorem1.validate ~max_depth:4 ~max_atoms:4000 ~e:entry.e
            entry.instance entry.rules
        in
        [
          entry.name;
          string_of_int (List.length entry.rules);
          yesno bdd;
          string_of_int v.atoms;
          string_of_int v.max_tournament;
          yesno v.loop;
          (if bdd then yesno (Theorem1.implication_holds ~threshold:4 v)
           else "n/a");
        ])
      Rulesets.zoo
  in
  Tabular.print
    ~title:
      "T3 — Theorem 1 sweep: for bdd sets, tournament ≥ 4 must force a loop"
    ~header:
      [ "rule set"; "#rules"; "bdd"; "atoms"; "max trn"; "loop"; "T1 holds" ]
    rows

(* ------------------------------------------------------------------ *)
(* T4: the Section-4 surgeries, step by step *)

let t4 () =
  let entries = [ "example1_bdd"; "tangle"; "dense"; "ternary" ] in
  let rows =
    List.concat_map
      (fun name ->
        let entry = Rulesets.find name in
        let p = Pipeline.regalize entry.instance entry.rules in
        let checks =
          Pipeline.verify_chase_preservation ~depth:3 entry.instance
            entry.rules p
        in
        List.map2
          (fun (step : Pipeline.step) (label, preserved) ->
            let r = Properties.describe step.rules in
            assert (String.equal label step.label);
            [
              name;
              step.label;
              string_of_int (List.length step.rules);
              yesno r.binary;
              yesno r.forward_existential;
              yesno r.predicate_unique;
              yesno preserved;
            ])
          p.steps checks)
      entries
  in
  Tabular.print
    ~title:
      "T4 — Rule-set surgeries (Section 4): properties gained, chase \
       preserved"
    ~header:
      [ "rule set"; "step"; "#rules"; "binary"; "fwd∃"; "pred-uniq";
        "chase ≡" ]
    rows

(* ------------------------------------------------------------------ *)
(* T5: UCQ rewriting sizes and bdd constants *)

let t5 () =
  let rows =
    List.map
      (fun (entry : Rulesets.entry) ->
        let q = Cq.atom_query entry.e in
        let t0 = Unix.gettimeofday () in
        let out = Rewrite.rewrite ~max_rounds:8 entry.rules q in
        let dt = (Unix.gettimeofday () -. t0) *. 1000. in
        [
          entry.name;
          Fmt.str "%a(x̄)" Symbol.pp_name entry.e;
          string_of_int (Ucq.size out.ucq);
          string_of_int out.generated;
          (if out.complete then string_of_int out.rounds else "∞ (budget)");
          Fmt.str "%.1f" dt;
        ])
      Rulesets.zoo
  in
  Tabular.print
    ~title:
      "T5 — UCQ rewriting of the edge predicate: size, bdd-constant bound, \
       cost"
    ~header:[ "rule set"; "query"; "|UCQ|"; "generated"; "rounds"; "ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* T6: injective rewriting blowup (Proposition 6) *)

let t6 () =
  let x = Term.var "x" and y = Term.var "y" in
  let z = Term.var "z" and w = Term.var "w" in
  let e s t = Atom.app "E" [ s; t ] in
  let cases =
    [
      ("edge", Cq.make ~answer:[ x; y ] [ e x y ]);
      ("path-2", Cq.make ~answer:[ x; y ] [ e x z; e z y ]);
      ("path-3", Cq.make ~answer:[ x; y ] [ e x z; e z w; e w y ]);
      ("V", Cq.make ~answer:[ x; y ] [ e z x; e z y ]);
      ("diamond", Cq.make ~answer:[ x; y ] [ e z x; e z y; e w z ]);
    ]
  in
  let rows =
    List.map
      (fun (name, q) ->
        let specs = Injective.specializations q in
        let u_inj = Injective.of_ucq (Ucq.of_cq q) in
        [
          name;
          string_of_int (Cq.size q);
          string_of_int (Term.Set.cardinal (Cq.vars q));
          string_of_int (List.length specs);
          string_of_int (Ucq.size u_inj);
        ])
      cases
  in
  Tabular.print
    ~title:
      "T6 — Injective rewriting blowup (Prop. 6): partitions of the \
       variable set"
    ~header:[ "query"; "atoms"; "vars"; "partitions"; "|Q_inj| (iso-dedup)" ]
    rows

(* ------------------------------------------------------------------ *)
(* T7: Section-5 valley analysis on regalized rule sets *)

let t7 () =
  let entries = [ "example1_bdd"; "tangle"; "succ_only"; "dense" ] in
  let rows =
    List.map
      (fun name ->
        let entry = Rulesets.find name in
        let p = Pipeline.regalize entry.instance entry.rules in
        let t = Witness.analyze ~depth:4 ~e:entry.e p.final in
        let edges = Witness.edges t in
        let stats =
          List.map
            (fun (s, tt) ->
              let ws = Witness.witnesses t s tt in
              let direct = List.exists (fun (q, _) -> Valley.is_valley q) ws in
              let valley = Witness.valley_witness t s tt in
              (List.length ws, direct, valley))
            edges
        in
        let shapes =
          List.filter_map
            (fun (_, _, v) ->
              Option.map
                (fun (q, _) -> Fmt.str "%a" Valley.pp_shape (Valley.shape q))
                v)
            stats
          |> List.sort_uniq String.compare
          |> String.concat ","
        in
        let g = Nca_graph.Digraph.of_instance t.e t.full in
        [
          name;
          string_of_int (Ucq.size t.rewriting);
          string_of_int (List.length edges);
          string_of_int (List.fold_left (fun acc (n, _, _) -> acc + n) 0 stats);
          string_of_int (List.length (List.filter (fun (_, d, _) -> d) stats));
          string_of_int
            (List.length
               (List.filter (fun (_, _, v) -> Option.is_some v) stats));
          (if shapes = "" then "-" else shapes);
          string_of_int (Tournament.max_tournament_size g);
          yesno (Cq.holds t.full (Cq.loop_query t.e));
        ])
      entries
  in
  Tabular.print
    ~title:
      "T7 — Valley analysis (Section 5) on regalized sets: every edge gets \
       a valley witness"
    ~header:
      [
        "rule set"; "|Q_⊠|"; "edges"; "Σ|W|"; "direct valleys";
        "after Lemma 40"; "shapes"; "max trn"; "loop";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* T11: scalability — chase and rewriting-based answering vs database size *)

let t11 () =
  let rules = (Rulesets.find "person_knows").rules in
  let knows = Symbol.make "Knows" 2 in
  let person = Symbol.make "Person" 1 in
  let sign = Symbol.Set.of_list [ knows; person ] in
  let q = Cq.atom_query person in
  let rows =
    List.map
      (fun size ->
        let db =
          Rulesets.random_instance ~seed:size ~constants:(max 4 (size / 3))
            ~atoms:size sign
        in
        let t0 = Unix.gettimeofday () in
        let forward =
          Nca_rewriting.Answering.answers_via_chase ~depth:3 rules db q
        in
        let t1 = Unix.gettimeofday () in
        let backward =
          Nca_rewriting.Answering.answers_via_rewriting rules db q
        in
        let t2 = Unix.gettimeofday () in
        [
          string_of_int size;
          string_of_int (List.length forward);
          Fmt.str "%.1f" ((t1 -. t0) *. 1000.);
          (match backward with
          | Some l -> string_of_int (List.length l)
          | None -> "-");
          Fmt.str "%.1f" ((t2 -. t1) *. 1000.);
        ])
      [ 10; 30; 100; 300; 1000 ]
  in
  Tabular.print
    ~title:
      "T11 — OBQA scalability: certain answers to Person(x) vs database \
       size (forward chase vs backward rewriting)"
    ~header:[ "db atoms"; "answers"; "chase ms"; "answers (rw)"; "rewrite ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* F1: chase growth, full vs existential part (Observation 35 context) *)

let f1 () =
  let entries = [ "succ_only"; "dense"; "example1_bdd"; "tangle" ] in
  let depth = 5 in
  let rows =
    List.concat_map
      (fun name ->
        let entry = Rulesets.find name in
        let _, existential = Rule.split_datalog entry.rules in
        let full = Chase.run ~max_depth:depth entry.instance entry.rules in
        let ex = Chase.run ~max_depth:depth entry.instance existential in
        List.init (depth + 1) (fun k ->
            [
              name;
              string_of_int k;
              string_of_int (Instance.cardinal (Chase.level full k));
              string_of_int (Instance.cardinal (Chase.level ex k));
              yesno
                (Nca_graph.Digraph.Term_graph.is_dag
                   (Nca_graph.Digraph.of_instance entry.e (Chase.level ex k)));
            ]))
      entries
  in
  Tabular.print
    ~title:
      "F1 — Chase growth per level: |Ch_k| full vs existential part (which \
       stays a DAG, Obs. 35)"
    ~header:[ "rule set"; "k"; "|Ch_k| full"; "|Ch_k| ∃-part"; "∃-part DAG" ]
    rows

(* ------------------------------------------------------------------ *)
(* F2: tournament-size bound vs number of rewriting disjuncts (Q. 46) *)

let f2 () =
  let rows =
    List.init 6 (fun i ->
        let colors = i + 1 in
        [
          string_of_int colors;
          string_of_int (Ramsey.four_clique_bound ~colors);
          yesno (Ramsey.is_exact (List.init colors (fun _ -> 4)));
        ])
  in
  Tabular.print
    ~title:
      "F2 — Loop-free tournament size bound R(4,…,4) vs |Q_⊠| (Question 46)"
    ~header:[ "|Q_⊠| (colors)"; "R(4,…,4) bound"; "exact" ]
    rows

(* ------------------------------------------------------------------ *)
(* F3: max tournament vs depth across rule-set families *)

let f3 () =
  let entries = [ "example1"; "example1_bdd"; "all_pairs"; "dense" ] in
  let rows =
    List.concat_map
      (fun name ->
        let entry = Rulesets.find name in
        Theorem1.series ~max_depth:5 ~max_atoms:6000 ~e:entry.e entry.instance
          entry.rules
        |> List.map (fun (p : Theorem1.point) ->
               [
                 name;
                 string_of_int p.level;
                 string_of_int p.level_tournament;
                 yesno p.level_loop;
               ]))
      entries
  in
  Tabular.print
    ~title:
      "F3 — Max tournament size vs chase depth: bdd sets loop before \
       tournaments outgrow the bound"
    ~header:[ "rule set"; "level"; "max tournament"; "loop" ] rows

(* ------------------------------------------------------------------ *)
(* T8: finite vs unrestricted semantics (the fc gap, computed) *)

let t8 () =
  let entries = [ "example1"; "example1_bdd"; "succ_only"; "symmetric" ] in
  let rows =
    List.map
      (fun name ->
        let entry = Rulesets.find name in
        let chase = Chase.run ~max_depth:5 entry.instance entry.rules in
        let unrestricted = Cq.holds chase.instance (Cq.loop_query entry.e) in
        let finite =
          match
            Nca_chase.Finite_model.loop_free_model_exists ~fresh:2 ~e:entry.e
              entry.instance entry.rules
          with
          | Nca_chase.Finite_model.Exists -> "no"
          | Nca_chase.Finite_model.Absent -> "yes"
          | Nca_chase.Finite_model.Unknown _ -> "budget"
        in
        [
          name;
          (if unrestricted then "yes" else "no");
          finite;
          (if (finite = "yes") <> unrestricted then "DIVERGE" else "agree");
        ])
      entries
  in
  Tabular.print
    ~title:
      "T8 — Finite vs unrestricted semantics of Loop_E: Example 1 diverges \
       (not fc), its bdd repair agrees"
    ~header:
      [ "rule set"; "chase ⊨ Loop"; "finite ⊨ Loop (+2 elems)"; "semantics" ]
    rows

(* ------------------------------------------------------------------ *)
(* T9: syntactic class membership across the zoo *)

let t9 () =
  let rows =
    List.map
      (fun (entry : Rulesets.entry) ->
        let c = Nca_surgery.Classes.classify entry.rules in
        let bdd =
          Bdd.certified
            (Bdd.for_signature ~max_rounds:8 entry.rules
               (Rule.signature entry.rules))
        in
        [
          entry.name;
          yesno c.linear;
          yesno c.guarded;
          yesno c.frontier_guarded;
          yesno c.sticky;
          yesno c.weakly_acyclic;
          yesno bdd;
        ])
      Rulesets.zoo
  in
  Tabular.print
    ~title:
      "T9 — Classical decidable classes vs the engine's bdd certificate \
       (linear/sticky ⟹ bdd)"
    ~header:
      [ "rule set"; "linear"; "guarded"; "fr-guarded"; "sticky"; "weak-acyc";
        "bdd (engine)" ]
    rows

(* ------------------------------------------------------------------ *)
(* A1: oblivious vs restricted chase (ablation) *)

let a1 () =
  let entries = [ "example1_bdd"; "dense"; "tangle"; "symmetric"; "inclusion" ] in
  let rows =
    List.concat_map
      (fun name ->
        let entry = Rulesets.find name in
        List.map
          (fun depth ->
            let atoms variant =
              Instance.cardinal
                (Chase.run ~variant ~max_depth:depth entry.instance
                   entry.rules)
                  .instance
            in
            let obl = atoms Chase.Oblivious in
            let semi = atoms Chase.Semi_oblivious in
            let res = atoms Chase.Restricted in
            [
              name;
              string_of_int depth;
              string_of_int obl;
              string_of_int semi;
              string_of_int res;
              Fmt.str "%.2f" (float_of_int obl /. float_of_int (max 1 res));
            ])
          [ 2; 4 ])
      entries
  in
  Tabular.print
    ~title:
      "A1 — Ablation: chase variants (oblivious = paper's Section 2.2; \
       semi-oblivious = Skolem; restricted = standard), atoms produced"
    ~header:
      [ "rule set"; "depth"; "oblivious"; "semi-obl"; "restricted";
        "obl/restr" ]
    rows

(* ------------------------------------------------------------------ *)
(* T10: the Question 46 audit — measured tournaments vs the Ramsey bound *)

let t10 () =
  let entries = [ "example1_bdd"; "succ_only"; "dense"; "tangle"; "short_only" ] in
  let rows =
    List.map
      (fun name ->
        let entry = Rulesets.find name in
        let a = Nca_core.Question46.audit ~depth:4 entry in
        [
          a.Nca_core.Question46.name;
          yesno a.bdd;
          yesno a.loop;
          string_of_int a.max_tournament;
          string_of_int a.rewriting_disjuncts;
          (if a.bound >= max_int / 2 then "≫10⁶" else string_of_int a.bound);
          yesno a.within_bound;
        ])
      entries
  in
  Tabular.print
    ~title:
      "T10 — Question 46 audit: loop-free tournament sizes vs the \
       extractable bound R(4,…,4) over |Q_⊠| colors"
    ~header:
      [ "rule set"; "bdd"; "loop"; "max trn"; "|Q_⊠|"; "bound"; "within" ]
    rows

(* ------------------------------------------------------------------ *)
(* A2: what the subsumption cover buys during rewriting (ablation) *)

let a2 () =
  let entries = [ "example1_bdd"; "symmetric"; "person_knows"; "all_pairs" ] in
  let rows =
    List.map
      (fun name ->
        let entry = Rulesets.find name in
        let q = Cq.atom_query entry.e in
        let with_cover = Rewrite.rewrite ~max_rounds:8 entry.rules q in
        let without =
          Rewrite.rewrite ~max_rounds:8 ~minimize:false entry.rules q
        in
        [
          name;
          string_of_int (Ucq.size with_cover.ucq);
          string_of_int with_cover.generated;
          yesno with_cover.complete;
          string_of_int (Ucq.size without.ucq);
          string_of_int without.generated;
          yesno without.complete;
        ])
      entries
  in
  Tabular.print
    ~title:
      "A2 — Ablation: rewriting with subsumption cover vs isomorphism-only \
       dedup"
    ~header:
      [ "rule set"; "|UCQ| cover"; "gen"; "fixpoint"; "|UCQ| no-cover";
        "gen"; "fixpoint" ]
    rows

(* ------------------------------------------------------------------ *)
(* F4: chromatic number of chase prefixes (Conjecture 44's measure) *)

let f4 () =
  let entries = [ "example1"; "example1_bdd"; "dense"; "all_pairs" ] in
  let rows =
    List.concat_map
      (fun name ->
        let entry = Rulesets.find name in
        let points =
          Nca_core.Conjecture44.series ~max_depth:4 ~e:entry.e entry.instance
            entry.rules
        in
        let verdict =
          match Nca_core.Conjecture44.verdict points with
          | `Consistent -> "consistent"
          | `Suspicious _ -> "suspicious"
        in
        List.map
          (fun (p : Nca_core.Conjecture44.point) ->
            [
              name;
              string_of_int p.level;
              string_of_int p.tournament;
              (match p.chromatic with
              | Some k -> string_of_int k
              | None -> "∞ (loop)");
              yesno p.loop;
              verdict;
            ])
          points)
      entries
  in
  Tabular.print
    ~title:
      "F4 — Chromatic number of chase E-graphs per level (Conjecture 44's \
       measure; χ ≥ tournament)"
    ~header:
      [ "rule set"; "level"; "max trn"; "χ (orientation closure)"; "loop";
        "C44 verdict" ]
    rows

(* ------------------------------------------------------------------ *)
(* F5: Theorem 7 checked empirically on random colored tournaments *)

let f5 () =
  let rows =
    List.map
      (fun (colors, target, trials) ->
        let n =
          Ramsey.upper_bound (List.init colors (fun _ -> target))
        in
        let ok =
          Nca_graph.Ramsey_check.check_theorem7 ~seed:42 ~colors ~target
            ~trials
        in
        [
          string_of_int colors;
          string_of_int target;
          string_of_int n;
          string_of_int trials;
          yesno ok;
        ])
      [ (2, 3, 50); (3, 3, 10); (2, 4, 5) ]
  in
  Tabular.print
    ~title:
      "F5 — Theorem 7 empirically: random k-colorings of R(s,…,s)-sized \
       tournaments always contain a monochromatic s-tournament"
    ~header:
      [ "colors"; "target s"; "tournament size"; "trials";
        "all contain mono-s" ]
    rows

(* ------------------------------------------------------------------ *)

let all =
  [
    ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4); ("t5", t5); ("t6", t6);
    ("t7", t7); ("t8", t8); ("t9", t9); ("t10", t10); ("t11", t11); ("a1", a1); ("a2", a2);
    ("f1", f1); ("f2", f2); ("f3", f3); ("f4", f4); ("f5", f5);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all
  in
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) all with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown experiment %S (known: %s)@." name
            (String.concat ", " (List.map fst all)))
    requested
