(* Perf harness for the matching/evaluation hot path.

   Times the indexed, delta-driven engines (Hom over the positional
   index, Chase.run over Trigger.all_delta, semi-naive Datalog) against
   the pre-index reference implementations kept in the test oracle
   library ([Nca_oracle.Naive]: per-predicate scans, full trigger
   re-enumeration every round, string trigger keys), and writes
   machine-readable BENCH_chase.json so later PRs have a perf trajectory
   to beat.

   Timing is pass-major: every row is set up first, then the whole row
   list runs [full_passes] times (5; [smoke_passes] = 2 for the smoke),
   each pass timing every side of every row once. A side is reported as
   the median of its samples with their interquartile range, so drift
   over the run shows up as spread instead of hiding behind a best-of-N.

   Usage:
     perf.exe                 full run, writes BENCH_chase.json in the cwd
     perf.exe --out FILE      full run, writes FILE
     perf.exe --only SUB      only the rows whose kind/name contains SUB;
                              writes nothing unless --out is given
     perf.exe --smoke         seconds-scale budgets, no file unless --out;
                              still validates JSON well-formedness and the
                              naive/indexed equivalence checks (the
                              @bench-smoke alias runs this under dune)

   Every pass also cross-checks the two sides of each row (atom counts,
   level profiles, closure equality, verdicts); a mismatch exits 2, so
   the harness doubles as an integration test. *)

open Nca_logic
module Chase = Nca_chase.Chase
module Datalog = Nca_chase.Datalog
module Rewrite = Nca_rewriting.Rewrite
module Rulesets = Nca_core.Rulesets
module Json = Nca_analysis.Json

module Naive = Nca_oracle.Naive

(* ------------------------------------------------------------------ *)
(* Rows, passes and the per-side statistic *)

let full_passes = 5
let smoke_passes = 2

let failures = ref 0

let mismatch workload fmt =
  Fmt.kstr
    (fun msg ->
      incr failures;
      Fmt.epr "MISMATCH %s: %s@." workload msg)
    fmt

let check_eq workload what a b =
  if a <> b then mismatch workload "%s: %d vs %d" what a b

(* One extra, untimed run with telemetry on: the engine's own counters
   (rounds, triggers, derived atoms) land next to the timings in the JSON
   row. The timed runs execute with telemetry disabled, so the numbers
   stay comparable across PRs. *)
let counters_of f =
  Nca_obs.Telemetry.enable ();
  ignore (f ());
  let snap = Nca_obs.Telemetry.snapshot () in
  Nca_obs.Telemetry.disable ();
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.Int v))
       snap.Nca_obs.Telemetry.counters)

(* One timed side of a row: [run] executes the workload once and parks
   its result for the row's cross-check; [samples] gets one wall time
   per pass, in microseconds. *)
type side = { run : unit -> unit; mutable samples : int list }

type row = {
  kind : string;
  name : string;
  compact : bool;
      (* [Gc.compact] before each side. Set on rows whose sides run the
         same engine on the same input, where the second side would
         otherwise pay (or dodge) the first side's GC debt. *)
  before : side option;  (* the reference engine, if the row has one *)
  after : side;
  settle : unit -> (string * Json.t) list;
      (* after each pass: cross-check the parked results, drop them, and
         return the row's descriptive fields *)
  counters : (unit -> Json.t) option;
  mutable fields : (string * Json.t) list;
}

let side f slot = { run = (fun () -> slot := Some (f ())); samples = [] }

let take slot =
  let v = Option.get !slot in
  slot := None;
  v

let make ?(compact = false) ?counters ~kind ~name before after settle =
  let counters = Option.map (fun f () -> counters_of f) counters in
  { kind; name; compact; before; after; settle; counters; fields = [] }

(* A row timing a reference side against the engine under test;
   [check workload b a] cross-checks one pass's results and returns the
   row's fields. *)
let pair ?compact ?counters ~kind ~name ~before ~after check =
  let b = ref None and a = ref None in
  make ?compact ?counters ~kind ~name
    (Some (side before b))
    (side after a)
    (fun () ->
      let rb = take b in
      check (kind ^ "/" ^ name) rb (take a))

(* A trajectory-only row: no reference engine, one timed side. *)
let single ?counters ~kind ~name run fields =
  let a = ref None in
  make ?counters ~kind ~name None (side run a) (fun () -> fields (take a))

let time_side compact s =
  if compact then Gc.compact ();
  let t0 = Unix.gettimeofday () in
  s.run ();
  let dt = Unix.gettimeofday () -. t0 in
  s.samples <- int_of_float (dt *. 1_000_000.) :: s.samples

let run_passes passes rows =
  for _ = 1 to passes do
    List.iter
      (fun r ->
        Option.iter (time_side r.compact) r.before;
        time_side r.compact r.after;
        r.fields <- r.settle ())
      rows
  done

(* Quantile by linear interpolation between order statistics (R's and
   numpy's default); [sorted] is non-empty. *)
let quantile sorted q =
  let h = q *. float_of_int (Array.length sorted - 1) in
  let i = int_of_float h in
  let lo = float_of_int sorted.(i) in
  if i + 1 >= Array.length sorted then lo
  else lo +. ((h -. float_of_int i) *. float_of_int (sorted.(i + 1) - sorted.(i)))

(* median and interquartile range of a side's samples, in microseconds *)
let summary s =
  let sorted = Array.of_list s.samples in
  Array.sort Int.compare sorted;
  let q p = quantile sorted p in
  (Float.to_int (Float.round (q 0.5)),
   Float.to_int (Float.round (q 0.75 -. q 0.25)))

let speedup_x100 ~before ~after = before * 100 / max 1 after

let row_json r =
  let timed label s =
    let median, iqr = summary s in
    ( median,
      [ (label ^ "_us", Json.Int median); (label ^ "_iqr_us", Json.Int iqr) ] )
  in
  let after_us, after = timed "after" r.after in
  let timings =
    match r.before with
    | None -> after
    | Some b ->
        let before_us, before = timed "before" b in
        before @ after
        @ [ ("speedup_x100", Json.Int (speedup_x100 ~before:before_us ~after:after_us)) ]
  in
  let counters =
    match r.counters with None -> [] | Some c -> [ ("counters", c ()) ]
  in
  Json.Obj
    ((("kind", Json.String r.kind) :: ("name", Json.String r.name) :: r.fields)
    @ timings @ counters)

(* ------------------------------------------------------------------ *)
(* Workloads *)

type budgets = { depth : int; atoms : int }

let chase_workload (name, full, smoke_b) ~smoke =
  let b = if smoke then smoke_b else full in
  let entry = Rulesets.find name in
  let run () =
    Chase.run ~max_depth:b.depth ~max_atoms:b.atoms entry.instance entry.rules
  in
  pair ~kind:"chase" ~name ~counters:run
    ~before:(fun () ->
      Naive.chase ~max_depth:b.depth ~max_atoms:b.atoms entry.instance
        entry.rules)
    ~after:run
    (fun workload (n_inst, n_levels, n_sat) c ->
      check_eq workload "atoms" (Instance.cardinal n_inst)
        (Instance.cardinal c.Chase.instance);
      check_eq workload "levels" (List.length n_levels)
        (List.length c.levels);
      check_eq workload "saturated" (Bool.to_int n_sat)
        (Bool.to_int c.saturated);
      List.iter2
        (fun a b ->
          check_eq workload "level profile" (Instance.cardinal a)
            (Instance.cardinal b))
        n_levels c.levels;
      [
        ("max_depth", Json.Int b.depth);
        ("max_atoms", Json.Int b.atoms);
        ("atoms", Json.Int (Instance.cardinal c.instance));
      ])

let datalog_workload (name, instance, rules_src) =
  let rules = Parser.parse_rules rules_src in
  let run () = Datalog.closure instance rules in
  pair ~kind:"datalog" ~name ~counters:run
    ~before:(fun () -> Naive.datalog_saturate instance rules)
    ~after:run
    (fun workload n_closure closure ->
      check_eq workload "closure" (Instance.cardinal n_closure)
        (Instance.cardinal closure);
      if not (Instance.equal n_closure closure) then
        mismatch workload "closures differ";
      [
        ("db_atoms", Json.Int (Instance.cardinal instance));
        ("closure_atoms", Json.Int (Instance.cardinal closure));
      ])

let hom_workload (name, pattern, target) =
  pair ~kind:"hom" ~name
    ~before:(fun () -> Naive.count pattern target)
    ~after:(fun () -> Hom.count pattern target)
    (fun workload n_count count ->
      check_eq workload "hom count" n_count count;
      [
        ("target_atoms", Json.Int (Instance.cardinal target));
        ("homs", Json.Int count);
      ])

(* Interned-vs-reference comparator workloads: the same data pushed once
   through the id-based comparators used on the hot paths and once
   through the string-based structural comparators kept for output
   ordering — the latter are the pre-interning reference semantics, so
   the ratio is the direct cost of structural comparison the interning
   layer removed. *)
module Structural_set = Set.Make (struct
  type t = Atom.t

  let compare = Atom.compare_structural
end)

let intern_row name ~detail ~before ~after ~data_atoms =
  pair ~kind:"intern" ~name ~before ~after (fun workload n_before n_after ->
      check_eq workload "result" n_before n_after;
      [
        ("detail", Json.String detail);
        ("data_atoms", Json.Int data_atoms);
        ("result", Json.Int n_after);
      ])

(* Hom-search flavor: the inner loop of matching is membership of a
   candidate fact in an already-matched set. Probe an interned id-ordered
   Atom.Set and a structurally-ordered reference set with the same
   mixed hit/miss stream. *)
let intern_membership_workload ~rounds target =
  let facts = Instance.atoms target in
  let misses =
    List.filter_map
      (fun a ->
        match Atom.args a with
        | [ s; t ] when not (Term.equal s t) ->
            Some (Atom.make (Atom.pred a) [ t; s ])
        | _ -> None)
      facts
    |> List.filter (fun a -> not (Instance.mem a target))
  in
  let probes = facts @ misses in
  let interned = Instance.to_set target in
  let structural =
    Structural_set.of_list facts
  in
  let count mem =
    let hits = ref 0 in
    for _ = 1 to rounds do
      List.iter (fun a -> if mem a then incr hits) probes
    done;
    !hits
  in
  intern_row "hom_membership"
    ~detail:"set membership probes on chase output (matching inner loop)"
    ~before:(fun () -> count (fun a -> Structural_set.mem a structural))
    ~after:(fun () -> count (fun a -> Atom.Set.mem a interned))
    ~data_atoms:(List.length probes)

(* Rewriting flavor: piece rewriting and minimization dedup candidate
   bodies with sort_uniq after every unification step. Replay that dedup
   over the bodies the rewriting actually produced. *)
let intern_dedup_workload ~rounds ~max_rounds name =
  let entry = Rulesets.find name in
  let q = Cq.atom_query entry.e in
  let out = Rewrite.rewrite ~max_rounds entry.rules q in
  let bodies = List.map Cq.body (Ucq.disjuncts out.ucq) in
  let pool = List.concat (bodies @ List.map List.rev bodies) in
  let dedup cmp =
    let n = ref 0 in
    for _ = 1 to rounds do
      List.iter
        (fun body -> n := !n + List.length (List.sort_uniq cmp body))
        bodies;
      n := !n + List.length (List.sort_uniq cmp pool)
    done;
    !n
  in
  intern_row "rewrite_dedup"
    ~detail:
      (Fmt.str "sort_uniq over %s rewriting bodies (piece/minimize dedup)" name)
    ~before:(fun () -> dedup Atom.compare_structural)
    ~after:(fun () -> dedup Atom.compare)
    ~data_atoms:(List.length pool)

(* Provenance overhead: the same chase timed with fact-level recording
   on (an entry per derived fact) and off (the default, one ref read per
   trigger). Here before = recording ON and after = recording OFF, so
   speedup_x100 is the overhead ratio directly: 100 = free, 110 = 10%
   slower with recording. The cross-check asserts recording is neutral —
   identical atom counts and depth either way. *)
let provenance_workload (name, full, smoke_b) ~smoke =
  let b = if smoke then smoke_b else full in
  let entry = Rulesets.find name in
  let module P = Nca_provenance.Provenance in
  let run () =
    Chase.run ~max_depth:b.depth ~max_atoms:b.atoms entry.instance entry.rules
  in
  pair ~compact:true ~kind:"provenance" ~name
    ~before:(fun () ->
      P.enable ();
      Fun.protect ~finally:P.disable (fun () ->
          let c = run () in
          (c, P.stats ())))
    ~after:run
    (fun workload (on, stats) off ->
      check_eq workload "atoms" (Instance.cardinal off.Chase.instance)
        (Instance.cardinal on.Chase.instance);
      check_eq workload "depth" off.Chase.depth on.Chase.depth;
      [
        ("max_depth", Json.Int b.depth);
        ("max_atoms", Json.Int b.atoms);
        ("atoms", Json.Int (Instance.cardinal on.Chase.instance));
        ("facts_tracked", Json.Int stats.P.facts);
        ("store_bytes", Json.Int stats.P.store_bytes);
        ("max_derivation_depth", Json.Int stats.P.max_depth);
      ])

(* Observability overhead rows: the same chase run once with the
   recorder on with every part (counters, spans, histograms, gauges and
   the event timeline ring) and once with it off — the default
   configuration every other row measures.
   speedup_x100 is the recording overhead (100 = free). The disabled
   path's no-op contract is guarded the other way round: these rows'
   after_us, like every chase row, feeds `bench/bench_diff.exe` against
   the committed baseline, so an instrumentation check that
   leaks cost into the disabled path shows up as a plain regression. *)
let obs_workload (name, full, smoke_b) ~smoke =
  let b = if smoke then smoke_b else full in
  let entry = Rulesets.find name in
  let run () =
    Chase.run ~max_depth:b.depth ~max_atoms:b.atoms entry.instance entry.rules
  in
  pair ~compact:true ~kind:"obs" ~name
    ~before:(fun () ->
      Nca_obs.Telemetry.enable ~timeline:65536 ();
      Fun.protect ~finally:Nca_obs.Telemetry.disable (fun () ->
          let c = run () in
          let { Nca_obs.Events.events; dropped } =
            (Nca_obs.Telemetry.snapshot ()).timeline
          in
          (c, List.length events, dropped)))
    ~after:run
    (fun workload (on, events, dropped) off ->
      check_eq workload "atoms"
        (Instance.cardinal off.Chase.instance)
        (Instance.cardinal on.Chase.instance);
      check_eq workload "depth" off.Chase.depth on.Chase.depth;
      [
        ("max_depth", Json.Int b.depth);
        ("max_atoms", Json.Int b.atoms);
        ("atoms", Json.Int (Instance.cardinal on.Chase.instance));
        ("events", Json.Int events);
        ("events_dropped", Json.Int dropped);
      ])

(* Planner-vs-interpreter rows: enumerate every trigger of the rule set
   over its chase fixpoint (trigger enumeration IS the hom search — no
   instance construction, no key table), once on the interpreted oracle
   search and once on the compiled [Hom], so speedup_x100 is the
   planner's own contribution on top of indexing/interning. *)
let plan_hom_workload (name, full, smoke_b) ~smoke =
  let b = if smoke then smoke_b else full in
  let entry = Rulesets.find name in
  let fixpoint =
    (Chase.run ~max_depth:b.depth ~max_atoms:b.atoms entry.instance
       entry.rules)
      .Chase.instance
  in
  let triggers count () =
    List.fold_left
      (fun n r -> n + count (Rule.body r) fixpoint)
      0 entry.rules
  in
  pair ~compact:true ~kind:"plan" ~name:("hom/" ^ name)
    ~before:(triggers (fun src tgt -> Nca_oracle.Hom.count src tgt))
    ~after:(triggers (fun src tgt -> Hom.count src tgt))
    (fun workload n_h n_c ->
      check_eq workload "triggers" n_h n_c;
      [
        ("target_atoms", Json.Int (Instance.cardinal fixpoint));
        ("triggers", Json.Int n_c);
      ])

(* Finite-model rows: the same bounded search run once on the oracle's
   depth-first completion (before) and once on the SAT-backed
   [Finite_model.search] (after), under one shared step budget. Two
   definitive verdicts must agree — an exhausted side contradicts
   nothing, and a [dfs_verdict = "exhausted"] next to a definitive
   [sat_verdict] is the row's point: the SAT engine settles
   fresh-element budgets the DFS cannot finish. [Finite_model.search]
   itself re-checks every model it returns. *)
module Finite_model = Nca_chase.Finite_model

let fm_verdict_name = function
  | Finite_model.Model _ -> "model"
  | Finite_model.No_model -> "no_model"
  | Finite_model.Exhausted _ -> "exhausted"

let fm_workload (name, fresh, max_steps) =
  let entry = Rulesets.find name in
  let forbid = Some (Cq.loop_query entry.e) in
  let before () =
    Nca_oracle.Fm_dfs.search ~fresh ~max_steps ?forbid entry.instance
      entry.rules
  and after () =
    Finite_model.search ~fresh ~max_steps ?forbid entry.instance entry.rules
  in
  pair ~compact:true ~kind:"fm" ~name:(Fmt.str "%s@fresh%d" name fresh)
    ~before ~after
    (fun workload d s ->
      (match (d, s) with
      | Finite_model.Model _, Finite_model.No_model
      | Finite_model.No_model, Finite_model.Model _ ->
          mismatch workload "dfs %s vs sat %s" (fm_verdict_name d)
            (fm_verdict_name s)
      | _ -> ());
      [
        ("fresh", Json.Int fresh);
        ("max_steps", Json.Int max_steps);
        ("dfs_verdict", Json.String (fm_verdict_name d));
        ("sat_verdict", Json.String (fm_verdict_name s));
      ])

(* Rewriting rides on the same Hom hot path; no separate naive engine is
   preserved for it, so these entries record the trajectory only. *)
let rewrite_workload ~max_rounds name =
  let entry = Rulesets.find name in
  let q = Cq.atom_query entry.e in
  single ~kind:"rewrite" ~name
    (fun () -> Rewrite.rewrite ~max_rounds entry.rules q)
    (fun out ->
      [
        ("max_rounds", Json.Int max_rounds);
        ("ucq_size", Json.Int (Ucq.size out.ucq));
        ("complete", Json.Bool out.complete);
      ])

(* The specialization closure and isomorphism dedup of [Q_inj]
   (Proposition 6) on the rewriting the Section-5 analysis computes: E(x,y)
   under the regalized rule set. Only [Injective.of_ucq] is timed. *)
let injective_workload name =
  let entry = Rulesets.find name in
  let regalized = Nca_surgery.Pipeline.regalize entry.instance entry.rules in
  let out = Rewrite.rewrite regalized.final (Cq.atom_query entry.e) in
  let specializations =
    List.length
      (List.concat_map Nca_rewriting.Injective.specializations
         (Ucq.disjuncts out.ucq))
  in
  single ~kind:"rewrite" ~name:("injective/" ^ name)
    (fun () -> Nca_rewriting.Injective.of_ucq out.ucq)
    (fun u_inj ->
      [
        ("specializations", Json.Int specializations);
        ("ucq_size", Json.Int (Ucq.size u_inj));
      ])

(* The termination classifier (static hierarchy + budgeted critical-
   instance chase) has no naive counterpart either; the rows pin the
   cost and the verdict so regressions in either show up in the
   trajectory. *)
let classify_workload name =
  let entry = Rulesets.find name in
  let module T = Nca_analysis.Termination in
  let run () = T.classify entry.rules in
  single ~kind:"classify" ~name ~counters:run run (fun t ->
      let status =
        match t.T.verdict with
        | T.Terminating (c, _) -> "terminating/" ^ T.criterion_name c
        | T.Non_terminating _ -> "non-terminating"
        | T.Unknown _ -> "unknown"
      in
      [ ("verdict", Json.String status) ])

(* ------------------------------------------------------------------ *)

let chain n =
  Instance.of_list
    (List.init n (fun i ->
         Atom.app "E"
           [ Term.cst (Fmt.str "c%d" i); Term.cst (Fmt.str "c%d" (i + 1)) ]))

let star n =
  Instance.of_list
    (Atom.app "H" [ Term.cst "hub" ]
    :: List.init n (fun i -> Atom.app "N" [ Term.cst (Fmt.str "n%d" i) ]))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Host metadata: lets bench_diff refuse to hard-fail a comparison
   across differing hosts, whose timings are not commensurable. *)
let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let host_json () =
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("os_type", Json.String Sys.os_type);
      ("git_describe", Json.String (git_describe ()));
    ]

let rows ~smoke ~only =
  let sel name = match only with None -> true | Some s -> contains name s in
  (* Budgets are per-workload: deep for the linear/join rule sets where
     the naive engine's per-round re-enumeration bites, shallow for the
     geometric ones (dense, tangle, example1_bdd) where the final round
     dominates both engines and the honest speedup is modest. *)
  let chase_workloads =
    [
      ("example1", { depth = 32; atoms = 20000 }, { depth = 8; atoms = 500 });
      ("example1_bdd", { depth = 6; atoms = 20000 }, { depth = 4; atoms = 500 });
      ("dense", { depth = 8; atoms = 20000 }, { depth = 5; atoms = 500 });
      ("tangle", { depth = 8; atoms = 20000 }, { depth = 5; atoms = 500 });
      ("succ_only", { depth = 250; atoms = 20000 }, { depth = 30; atoms = 500 });
      ("inclusion", { depth = 300; atoms = 20000 }, { depth = 30; atoms = 500 });
      ("guarded", { depth = 250; atoms = 20000 }, { depth = 30; atoms = 500 });
      ("all_pairs", { depth = 80; atoms = 20000 }, { depth = 10; atoms = 500 });
    ]
  in
  let chase_rows =
    chase_workloads
    |> List.filter (fun (n, _, _) -> sel ("chase/" ^ n))
    |> List.map (fun w -> chase_workload w ~smoke)
  in
  let datalog_rows =
    [
      ("tc_chain", chain (if smoke then 12 else 48), "tc: E(x,y), E(y,z) -> E(x,z).");
      ( "tc_sym_random",
        Rulesets.random_instance ~seed:7
          ~constants:(if smoke then 8 else 24)
          ~atoms:(if smoke then 20 else 120)
          (Symbol.Set.singleton (Symbol.make "E" 2)),
        "sym: E(x,y) -> E(y,x). tc: E(x,y), E(y,z) -> E(x,z)." );
      ( "broadcast_star",
        star (if smoke then 10 else 60),
        "b1: H(x), N(y) -> E(x,y). b2: H(x), N(y) -> E(y,x)." );
    ]
    |> List.filter (fun (n, _, _) -> sel ("datalog/" ^ n))
    |> List.map datalog_workload
  in
  let hom_target =
    let entry = Rulesets.find "example1_bdd" in
    (Chase.run ~max_depth:(if smoke then 4 else 6) entry.instance entry.rules)
      .instance
  in
  let u = Term.var "u" and v = Term.var "v" and w = Term.var "w" in
  let e s t = Atom.app "E" [ s; t ] in
  let hom_rows =
    [
      ("path2_exists_seeded", [ e u v; e v w ], hom_target);
      ("vee_join", [ e u v; e u w ], hom_target);
    ]
    |> List.filter (fun (n, _, _) -> sel ("hom/" ^ n))
    |> List.map hom_workload
  in
  let fm_rows =
    (* one step budget for both engines per row; the interesting rows
       run the DFS side to its budget. The smoke run keeps every row (so
       its bench_diff lists none as removed) at a tenth of the budget. *)
    let max_steps = if smoke then 50_000 else 500_000 in
    List.concat_map
      (fun name -> List.map (fun fresh -> (name, fresh, max_steps)) [ 2; 4; 8 ])
      [ "example1"; "succ_only" ]
    |> List.filter (fun (n, f, _) -> sel (Fmt.str "fm/%s@fresh%d" n f))
    |> List.map fm_workload
  in
  let rewrite_rows =
    [ "example1_bdd"; "symmetric"; "sticky"; "ucq_defined" ]
    |> List.filter (fun n -> sel ("rewrite/" ^ n))
    |> List.map (rewrite_workload ~max_rounds:(if smoke then 4 else 8))
  in
  let injective_rows =
    [ "example1_bdd" ]
    |> List.filter (fun n -> sel ("rewrite/injective/" ^ n))
    |> List.map injective_workload
  in
  let classify_rows =
    [ "example1"; "example1_bdd"; "succ_only"; "guarded"; "sticky";
      "datalog_star" ]
    |> List.filter (fun n -> sel ("classify/" ^ n))
    |> List.map classify_workload
  in
  let overhead_workloads =
    [
      ("example1", { depth = 32; atoms = 20000 }, { depth = 8; atoms = 500 });
      ("dense", { depth = 8; atoms = 20000 }, { depth = 5; atoms = 500 });
      ("inclusion", { depth = 300; atoms = 20000 }, { depth = 30; atoms = 500 });
    ]
  in
  let provenance_rows =
    overhead_workloads
    |> List.filter (fun (n, _, _) -> sel ("provenance/" ^ n))
    |> List.map (fun w -> provenance_workload w ~smoke)
  in
  let obs_rows =
    overhead_workloads
    |> List.filter (fun (n, _, _) -> sel ("obs/" ^ n))
    |> List.map (fun w -> obs_workload w ~smoke)
  in
  let intern_rows =
    (if sel "intern/hom_membership" then
       [
         intern_membership_workload
           ~rounds:(if smoke then 5 else 200)
           hom_target;
       ]
     else [])
    @
    if sel "intern/rewrite_dedup" then
      [
        intern_dedup_workload
          ~rounds:(if smoke then 5 else 500)
          ~max_rounds:(if smoke then 4 else 8)
          "example1_bdd";
      ]
    else []
  in
  let plan_hom_rows =
    chase_workloads
    |> List.filter (fun (n, _, _) ->
           List.mem n [ "example1"; "example1_bdd"; "dense"; "tangle";
                        "all_pairs" ])
    |> List.filter (fun (n, _, _) -> sel ("plan/hom/" ^ n))
    |> List.map (fun w -> plan_hom_workload w ~smoke)
  in
  chase_rows @ datalog_rows @ hom_rows @ fm_rows @ rewrite_rows
  @ injective_rows @ classify_rows @ provenance_rows @ obs_rows @ intern_rows
  @ plan_hom_rows

let run_all ~smoke ~only =
  let rows = rows ~smoke ~only in
  let passes = if smoke then smoke_passes else full_passes in
  run_passes passes rows;
  Json.Obj
    [
      ("schema", Json.String "nocliques/bench_chase/v3");
      ("smoke", Json.Bool smoke);
      ("host", host_json ());
      ("time_unit", Json.String "us");
      ("passes", Json.Int passes);
      ( "note",
        Json.String
          "before = seed engines (predicate-scan Hom, full trigger \
           re-enumeration, string keys); after = positional-index Hom + \
           delta-driven chase + structural keys. intern rows: before = \
           string-based structural comparators, after = interned id \
           comparators on the same data. provenance rows: before = \
           chase with fact-level recording on, after = recording off, \
           so speedup_x100 is the recording overhead (100 = free). \
           fm rows: before = depth-first finite-model completion (the \
           test oracle), after = MACE-style SAT grounding (the \
           toolkit's engine), both under the same step budget \
           and forbidding an E-loop; an exhausted dfs_verdict next to a \
           definitive sat_verdict means the SAT engine settled a budget \
           the DFS could not finish. \
           plan rows: trigger enumeration alone over the chase fixpoint, \
           before = interpreted fewest-candidates-first search (the test \
           oracle), after = compiled join plans with leapfrog \
           intersection. obs rows: before = chase with every profiling layer \
           recording (telemetry + metrics + event ring), after = all \
           off, so speedup_x100 is the recording overhead (100 = free). \
           v3 timing: the whole row list runs `passes` times, each pass \
           timing every side once (Gc.compact before each side of the \
           provenance, obs, plan and fm rows); before_us/after_us are \
           the medians over the passes and before_iqr_us/after_iqr_us \
           their interquartile ranges, all in integer microseconds. \
           `bench/bench_diff.exe` flags a row only when its \
           after_us median grew past the threshold and by more than the \
           two documents' after_iqr_us combined, and hard-fails only \
           between documents whose host blocks (cores, ocaml_version) \
           and smoke flags match. speedup_x100 = 100 * before/after \
           (medians)." );
      ("workloads", Json.List (List.map row_json rows));
    ]

let row_key row =
  let str k = Option.value ~default:"?" (Option.bind (Json.member k row) Json.to_str) in
  str "kind" ^ "/" ^ str "name"

let workloads doc =
  Option.value ~default:[] (Option.bind (Json.member "workloads" doc) Json.to_list)

(* each side as median ± IQR *)
let summarize doc =
  List.iter
    (fun row ->
      let int k = Option.bind (Json.member k row) Json.to_int in
      let side label =
        match (int (label ^ "_us"), int (label ^ "_iqr_us")) with
        | Some m, Some iqr -> Fmt.str "%8d ±%6d us" m iqr
        | _ -> Fmt.str "%19s" "-"
      in
      let speedup =
        match int "speedup_x100" with
        | Some s -> Fmt.str "  (%d.%02dx)" (s / 100) (s mod 100)
        | None -> ""
      in
      Fmt.pr "%-30s %s -> %s%s@." (row_key row) (side "before") (side "after")
        speedup)
    (workloads doc)

(* Harness-rot check: the emitted document must round-trip, and every
   timed side must carry its spread. *)
let check_rendered rendered =
  match Json.parse rendered with
  | Error e ->
      Fmt.epr "BENCH json does not round-trip: %s@." e;
      incr failures
  | Ok doc ->
      List.iter
        (fun row ->
          List.iter
            (fun label ->
              let has k = Json.member k row <> None in
              if has (label ^ "_us") && not (has (label ^ "_iqr_us")) then begin
                Fmt.epr "BENCH row %s: %s_us without %s_iqr_us@." (row_key row)
                  label label;
                incr failures
              end)
            [ "before"; "after" ])
        (workloads doc)

let () =
  let argv = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" argv in
  let rec arg flag = function
    | f :: value :: _ when f = flag -> Some value
    | _ :: rest -> arg flag rest
    | [] -> None
  in
  let out = arg "--out" argv and only = arg "--only" argv in
  let doc = run_all ~smoke ~only in
  let rendered = Fmt.str "%a" Json.pp doc in
  check_rendered rendered;
  summarize doc;
  (* a filtered run is partial — never let it overwrite the committed
     document unless an output path was asked for explicitly *)
  (if Option.is_some out || (not smoke && only = None) then begin
     let path = Option.value ~default:"BENCH_chase.json" out in
     let oc = open_out path in
     output_string oc rendered;
     output_string oc "\n";
     close_out oc;
     Fmt.pr "wrote %s@." path
   end);
  if !failures > 0 then begin
    Fmt.epr "%d failure(s)@." !failures;
    exit 2
  end
