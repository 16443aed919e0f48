(* Perf harness for the matching/evaluation hot path.

   Times the indexed, delta-driven engines (Hom over the positional
   index, Chase.run over Trigger.all_delta, semi-naive Datalog) against
   the pre-index reference implementations kept in the test oracle
   library ([Nca_oracle.Naive]: per-predicate scans, full trigger
   re-enumeration every round, string trigger keys), and writes
   machine-readable BENCH_chase.json so later PRs have a perf trajectory
   to beat.

   Usage:
     perf.exe                 full run, writes BENCH_chase.json in the cwd
     perf.exe --out FILE      full run, writes FILE
     perf.exe --smoke         seconds-scale budgets, no file unless --out;
                              still validates JSON well-formedness and the
                              naive/indexed equivalence checks (the
                              @bench-smoke alias runs this under dune)

   Every workload run also cross-checks the two engines against each
   other (atom counts, level profiles, closure equality); a mismatch
   exits non-zero, so the harness doubles as an integration test. *)

open Nca_logic
module Chase = Nca_chase.Chase
module Datalog = Nca_chase.Datalog
module Rewrite = Nca_rewriting.Rewrite
module Rulesets = Nca_core.Rulesets
module Json = Nca_analysis.Json

module Naive = Nca_oracle.Naive

(* ------------------------------------------------------------------ *)
(* Timing *)

let time_us ?(reps = 3) f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, int_of_float (!best *. 1_000_000.))

let speedup_x100 ~before ~after = before * 100 / max 1 after

let failures = ref 0

(* One extra, untimed run with telemetry on: the engine's own counters
   (rounds, triggers, derived atoms) land next to the timings in the JSON
   row. The timed runs above execute with telemetry disabled, so the
   numbers stay comparable across PRs. *)
let counters_of f =
  Nca_obs.Telemetry.enable ();
  ignore (f ());
  let snap = Nca_obs.Telemetry.snapshot () in
  Nca_obs.Telemetry.disable ();
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.Int v))
       snap.Nca_obs.Telemetry.counters)

let check_eq ~workload what a b =
  if a <> b then begin
    Fmt.epr "MISMATCH %s: %s: %d vs %d@." workload what a b;
    incr failures
  end

(* ------------------------------------------------------------------ *)
(* Workloads *)

type budgets = { depth : int; atoms : int }

let chase_workload ~reps (name, full, smoke_b) ~smoke =
  let b = if smoke then smoke_b else full in
  let entry = Rulesets.find name in
  let (n_inst, n_levels, n_sat), before_us =
    time_us ~reps (fun () ->
        Naive.chase ~max_depth:b.depth ~max_atoms:b.atoms entry.instance
          entry.rules)
  in
  let c, after_us =
    time_us ~reps (fun () ->
        Chase.run ~max_depth:b.depth ~max_atoms:b.atoms entry.instance
          entry.rules)
  in
  let workload = "chase/" ^ name in
  check_eq ~workload "atoms" (Instance.cardinal n_inst)
    (Instance.cardinal c.instance);
  check_eq ~workload "levels" (List.length n_levels)
    (List.length c.levels);
  check_eq ~workload "saturated" (Bool.to_int n_sat)
    (Bool.to_int c.saturated);
  List.iter2
    (fun a b ->
      check_eq ~workload "level profile" (Instance.cardinal a)
        (Instance.cardinal b))
    n_levels c.levels;
  Json.Obj
    [
      ("kind", Json.String "chase");
      ("name", Json.String name);
      ("max_depth", Json.Int b.depth);
      ("max_atoms", Json.Int b.atoms);
      ("atoms", Json.Int (Instance.cardinal c.instance));
      ("before_us", Json.Int before_us);
      ("after_us", Json.Int after_us);
      ("speedup_x100", Json.Int (speedup_x100 ~before:before_us ~after:after_us));
      ( "counters",
        counters_of (fun () ->
            Chase.run ~max_depth:b.depth ~max_atoms:b.atoms entry.instance
              entry.rules) );
    ]

let datalog_workload ~reps (name, instance, rules_src, smoke_scale) ~smoke =
  let instance = if smoke then smoke_scale instance else instance in
  let rules = Parser.parse_rules rules_src in
  let n_closure, before_us =
    time_us ~reps (fun () -> Naive.datalog_saturate instance rules)
  in
  let closure, after_us =
    time_us ~reps (fun () -> Datalog.closure instance rules)
  in
  let workload = "datalog/" ^ name in
  check_eq ~workload "closure" (Instance.cardinal n_closure)
    (Instance.cardinal closure);
  if not (Instance.equal n_closure closure) then begin
    Fmt.epr "MISMATCH %s: closures differ@." workload;
    incr failures
  end;
  Json.Obj
    [
      ("kind", Json.String "datalog");
      ("name", Json.String name);
      ("db_atoms", Json.Int (Instance.cardinal instance));
      ("closure_atoms", Json.Int (Instance.cardinal closure));
      ("before_us", Json.Int before_us);
      ("after_us", Json.Int after_us);
      ("speedup_x100", Json.Int (speedup_x100 ~before:before_us ~after:after_us));
      ("counters", counters_of (fun () -> Datalog.closure instance rules));
    ]

let hom_workload ~reps (name, pattern, target) =
  let n_count, before_us = time_us ~reps (fun () -> Naive.count pattern target) in
  let count, after_us = time_us ~reps (fun () -> Hom.count pattern target) in
  check_eq ~workload:("hom/" ^ name) "hom count" n_count count;
  Json.Obj
    [
      ("kind", Json.String "hom");
      ("name", Json.String name);
      ("target_atoms", Json.Int (Instance.cardinal target));
      ("homs", Json.Int count);
      ("before_us", Json.Int before_us);
      ("after_us", Json.Int after_us);
      ("speedup_x100", Json.Int (speedup_x100 ~before:before_us ~after:after_us));
    ]

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

let intern_row name ~detail ~reps ~before ~after ~data_atoms =
  let n_before, before_us = time_us ~reps before in
  let n_after, after_us = time_us ~reps after in
  check_eq ~workload:("intern/" ^ name) "result" n_before n_after;
  Json.Obj
    [
      ("kind", Json.String "intern");
      ("name", Json.String name);
      ("detail", Json.String detail);
      ("data_atoms", Json.Int data_atoms);
      ("result", Json.Int n_after);
      ("before_us", Json.Int before_us);
      ("after_us", Json.Int after_us);
      ("speedup_x100", Json.Int (speedup_x100 ~before:before_us ~after:after_us));
    ]

(* Hom-search flavor: the inner loop of matching is membership of a
   candidate fact in an already-matched set. Probe an interned id-ordered
   Atom.Set and a structurally-ordered reference set with the same
   mixed hit/miss stream. *)
let intern_membership_workload ~reps ~rounds target =
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
    ~reps
    ~before:(fun () -> count (fun a -> Structural_set.mem a structural))
    ~after:(fun () -> count (fun a -> Atom.Set.mem a interned))
    ~data_atoms:(List.length probes)

(* Rewriting flavor: piece rewriting and minimization dedup candidate
   bodies with sort_uniq after every unification step. Replay that dedup
   over the bodies the rewriting actually produced. *)
let intern_dedup_workload ~reps ~rounds ~max_rounds name =
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
    ~reps
    ~before:(fun () -> dedup Atom.compare_structural)
    ~after:(fun () -> dedup Atom.compare)
    ~data_atoms:(List.length pool)

(* Provenance overhead: the same chase timed with fact-level recording
   off (the default, one ref read per trigger) and on (an entry per
   derived fact). Here before = recording ON and after = recording OFF,
   so speedup_x100 is the overhead ratio directly: 100 = free, 110 = 10%
   slower with recording. The cross-check asserts recording is neutral —
   identical atom counts and depth either way. *)
let provenance_workload ~reps (name, full, smoke_b) ~smoke =
  let b = if smoke then smoke_b else full in
  let entry = Rulesets.find name in
  (* the two sides run the same engine on the same input — compact the
     heap before each so the second side does not pay (or dodge) the
     first side's GC debt, which at example1 scale outweighs the
     recording cost being measured *)
  Gc.compact ();
  let off, off_us =
    time_us ~reps (fun () ->
        Chase.run ~max_depth:b.depth ~max_atoms:b.atoms entry.instance
          entry.rules)
  in
  Gc.compact ();
  let (on, stats), on_us =
    time_us ~reps (fun () ->
        Nca_provenance.Provenance.enable ();
        Fun.protect ~finally:Nca_provenance.Provenance.disable (fun () ->
            let c =
              Chase.run ~max_depth:b.depth ~max_atoms:b.atoms entry.instance
                entry.rules
            in
            (c, Nca_provenance.Provenance.stats ())))
  in
  let workload = "provenance/" ^ name in
  check_eq ~workload "atoms" (Instance.cardinal off.Chase.instance)
    (Instance.cardinal on.Chase.instance);
  check_eq ~workload "depth" off.Chase.depth on.Chase.depth;
  Json.Obj
    [
      ("kind", Json.String "provenance");
      ("name", Json.String name);
      ("max_depth", Json.Int b.depth);
      ("max_atoms", Json.Int b.atoms);
      ("atoms", Json.Int (Instance.cardinal on.Chase.instance));
      ("facts_tracked", Json.Int stats.Nca_provenance.Provenance.facts);
      ("store_bytes", Json.Int stats.Nca_provenance.Provenance.store_bytes);
      ("max_derivation_depth",
       Json.Int stats.Nca_provenance.Provenance.max_depth);
      ("before_us", Json.Int on_us);
      ("after_us", Json.Int off_us);
      ("speedup_x100", Json.Int (speedup_x100 ~before:on_us ~after:off_us));
    ]

(* Observability overhead rows: the same chase run once with every
   profiling layer recording (telemetry counters/spans + metrics
   histograms/gauges + the event timeline ring) and once with all of
   them off — the default configuration every other row measures.
   speedup_x100 is the recording overhead (100 = free). The disabled
   path's no-op contract is guarded the other way round: these rows'
   after_us, like every chase row, feeds `nocliques debug bench-diff`
   against the committed baseline, so an instrumentation check that
   leaks cost into the disabled path shows up as a plain regression. *)
let obs_workload ~reps (name, full, smoke_b) ~smoke =
  let b = if smoke then smoke_b else full in
  let entry = Rulesets.find name in
  let run () =
    Chase.run ~max_depth:b.depth ~max_atoms:b.atoms entry.instance entry.rules
  in
  Gc.compact ();
  let off, off_us = time_us ~reps run in
  Gc.compact ();
  let (on, events, dropped), on_us =
    time_us ~reps (fun () ->
        Nca_obs.Telemetry.enable ();
        Nca_obs.Metrics.enable ();
        Nca_obs.Events.enable ();
        Fun.protect
          ~finally:(fun () ->
            Nca_obs.Telemetry.disable ();
            Nca_obs.Metrics.disable ();
            Nca_obs.Events.disable ())
          (fun () ->
            let c = run () in
            let snap = Nca_obs.Events.snapshot () in
            ( c,
              List.length snap.Nca_obs.Events.events,
              snap.Nca_obs.Events.dropped )))
  in
  let workload = "obs/" ^ name in
  check_eq ~workload "atoms"
    (Instance.cardinal off.Chase.instance)
    (Instance.cardinal on.Chase.instance);
  check_eq ~workload "depth" off.Chase.depth on.Chase.depth;
  Json.Obj
    [
      ("kind", Json.String "obs");
      ("name", Json.String name);
      ("max_depth", Json.Int b.depth);
      ("max_atoms", Json.Int b.atoms);
      ("atoms", Json.Int (Instance.cardinal on.Chase.instance));
      ("events", Json.Int events);
      ("events_dropped", Json.Int dropped);
      ("before_us", Json.Int on_us);
      ("after_us", Json.Int off_us);
      ("speedup_x100", Json.Int (speedup_x100 ~before:on_us ~after:off_us));
    ]

(* Planner-vs-interpreter rows: enumerate every trigger of the rule set
   over its chase fixpoint (trigger enumeration IS the hom search — no
   instance construction, no key table), once on the interpreted oracle
   search and once on the compiled [Hom], so speedup_x100 is the
   planner's own contribution on top of indexing/interning. *)
let plan_hom_workload ~reps (name, full, smoke_b) ~smoke =
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
  Gc.compact ();
  let n_h, before_us =
    time_us ~reps (triggers (fun src tgt -> Nca_oracle.Hom.count src tgt))
  in
  Gc.compact ();
  let n_c, after_us = time_us ~reps (triggers (fun src tgt -> Hom.count src tgt)) in
  check_eq ~workload:("plan/hom/" ^ name) "triggers" n_h n_c;
  Json.Obj
    [
      ("kind", Json.String "plan");
      ("name", Json.String ("hom/" ^ name));
      ("target_atoms", Json.Int (Instance.cardinal fixpoint));
      ("triggers", Json.Int n_c);
      ("before_us", Json.Int before_us);
      ("after_us", Json.Int after_us);
      ("speedup_x100", Json.Int (speedup_x100 ~before:before_us ~after:after_us));
    ]

(* Finite-model rows: the same bounded search run once on the
   depth-first completion engine (before) and once on the SAT-backed
   grounding (after), under one shared step budget. Two definitive
   verdicts must agree — an exhausted side contradicts nothing, and a
   [dfs_verdict = "exhausted"] next to a definitive [sat_verdict] is
   the row's point: the SAT engine settles fresh-element budgets the
   DFS cannot finish. Every SAT model is re-run through the
   independent checker before the row is accepted. *)
module Finite_model = Nca_chase.Finite_model

let fm_verdict_name = function
  | Finite_model.Model _ -> "model"
  | Finite_model.No_model -> "no_model"
  | Finite_model.Exhausted _ -> "exhausted"

let fm_workload ~reps (name, fresh, max_steps) =
  let entry = Rulesets.find name in
  let forbid = Some (Cq.loop_query entry.e) in
  let run engine () =
    Finite_model.search ~engine ~fresh ~max_steps ?forbid entry.instance
      entry.rules
  in
  Gc.compact ();
  let d, before_us = time_us ~reps (run Finite_model.Dfs) in
  Gc.compact ();
  let s, after_us = time_us ~reps (run Finite_model.Sat) in
  let workload = Fmt.str "fm/%s@fresh%d" name fresh in
  (match (d, s) with
  | Finite_model.Model _, Finite_model.No_model
  | Finite_model.No_model, Finite_model.Model _ ->
      Fmt.epr "MISMATCH %s: dfs %s vs sat %s@." workload (fm_verdict_name d)
        (fm_verdict_name s);
      incr failures
  | _ -> ());
  (match s with
  | Finite_model.Model m -> (
      match
        Nca_chase.Fm_check.check ?forbid ~start:entry.instance
          ~rules:entry.rules m
      with
      | Ok () -> ()
      | Error e ->
          Fmt.epr "MISMATCH %s: sat model rejected by the checker: %s@."
            workload e;
          incr failures)
  | _ -> ());
  Json.Obj
    [
      ("kind", Json.String "fm");
      ("name", Json.String (Fmt.str "%s@fresh%d" name fresh));
      ("fresh", Json.Int fresh);
      ("max_steps", Json.Int max_steps);
      ("dfs_verdict", Json.String (fm_verdict_name d));
      ("sat_verdict", Json.String (fm_verdict_name s));
      ("before_us", Json.Int before_us);
      ("after_us", Json.Int after_us);
      ("speedup_x100", Json.Int (speedup_x100 ~before:before_us ~after:after_us));
    ]

(* Rewriting rides on the same Hom hot path; no separate naive engine is
   preserved for it, so these entries record the trajectory only. *)
let rewrite_workload ~reps ~max_rounds name =
  let entry = Rulesets.find name in
  let q = Cq.atom_query entry.e in
  let out, after_us =
    time_us ~reps (fun () -> Rewrite.rewrite ~max_rounds entry.rules q)
  in
  Json.Obj
    [
      ("kind", Json.String "rewrite");
      ("name", Json.String name);
      ("max_rounds", Json.Int max_rounds);
      ("ucq_size", Json.Int (Ucq.size out.ucq));
      ("complete", Json.Bool out.complete);
      ("after_us", Json.Int after_us);
    ]

(* The specialization closure and isomorphism dedup of [Q_inj]
   (Proposition 6) on the rewriting the Section-5 analysis computes: E(x,y)
   under the regalized rule set. Only [Injective.of_ucq] is timed. *)
let injective_workload ~reps name =
  let entry = Rulesets.find name in
  let regalized = Nca_surgery.Pipeline.regalize entry.instance entry.rules in
  let out = Rewrite.rewrite regalized.final (Cq.atom_query entry.e) in
  let specializations =
    List.length
      (List.concat_map Nca_rewriting.Injective.specializations
         (Ucq.disjuncts out.ucq))
  in
  let u_inj, after_us =
    time_us ~reps (fun () -> Nca_rewriting.Injective.of_ucq out.ucq)
  in
  Json.Obj
    [
      ("kind", Json.String "rewrite");
      ("name", Json.String ("injective/" ^ name));
      ("specializations", Json.Int specializations);
      ("ucq_size", Json.Int (Ucq.size u_inj));
      ("after_us", Json.Int after_us);
    ]

(* The termination classifier (static hierarchy + budgeted critical-
   instance chase) has no naive counterpart either; the rows pin the
   cost and the verdict so regressions in either show up in the
   trajectory. *)
let classify_workload ~reps name =
  let entry = Rulesets.find name in
  let module T = Nca_analysis.Termination in
  let t, after_us = time_us ~reps (fun () -> T.classify entry.rules) in
  let status =
    match t.T.verdict with
    | T.Terminating (c, _) -> "terminating/" ^ T.criterion_name c
    | T.Non_terminating _ -> "non-terminating"
    | T.Unknown _ -> "unknown"
  in
  Json.Obj
    [
      ("kind", Json.String "classify");
      ("name", Json.String name);
      ("verdict", Json.String status);
      ("after_us", Json.Int after_us);
      ("counters", counters_of (fun () -> T.classify entry.rules));
    ]

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

(* Host metadata (bench_chase v2): lets bench-diff refuse to hard-fail
   a comparison across differing hosts, whose timings are not
   commensurable. *)
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

let run_all ~smoke ~only =
  let sel name = match only with None -> true | Some s -> contains name s in
  let reps = if smoke then 1 else 3 in
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
  let datalog_workloads =
    [
      ( "tc_chain",
        chain (if smoke then 12 else 48),
        "tc: E(x,y), E(y,z) -> E(x,z).",
        fun i -> i );
      ( "tc_sym_random",
        Rulesets.random_instance ~seed:7
          ~constants:(if smoke then 8 else 24)
          ~atoms:(if smoke then 20 else 120)
          (Symbol.Set.singleton (Symbol.make "E" 2)),
        "sym: E(x,y) -> E(y,x). tc: E(x,y), E(y,z) -> E(x,z).",
        fun i -> i );
      ( "broadcast_star",
        star (if smoke then 10 else 60),
        "b1: H(x), N(y) -> E(x,y). b2: H(x), N(y) -> E(y,x).",
        fun i -> i );
    ]
  in
  let chase_rows =
    chase_workloads
    |> List.filter (fun (n, _, _) -> sel ("chase/" ^ n))
    |> List.map (fun w -> chase_workload ~reps w ~smoke)
  in
  let datalog_rows =
    datalog_workloads
    |> List.filter (fun (n, _, _, _) -> sel ("datalog/" ^ n))
    |> List.map (fun w -> datalog_workload ~reps w ~smoke)
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
    |> List.map (fun w -> hom_workload ~reps w)
  in
  let fm_rows =
    (* one step budget for both engines per row; reps = 1 because the
       interesting rows run the DFS side to its budget. The smoke run
       keeps every row (so its bench-diff lists none as removed) at a
       tenth of the budget. *)
    let max_steps = if smoke then 50_000 else 500_000 in
    List.concat_map
      (fun name -> List.map (fun fresh -> (name, fresh, max_steps)) [ 2; 4; 8 ])
      [ "example1"; "succ_only" ]
    |> List.filter (fun (n, f, _) -> sel (Fmt.str "fm/%s@fresh%d" n f))
    |> List.map (fun w -> fm_workload ~reps:1 w)
  in
  let rewrite_rows =
    [ "example1_bdd"; "symmetric"; "sticky"; "ucq_defined" ]
    |> List.filter (fun n -> sel ("rewrite/" ^ n))
    |> List.map (rewrite_workload ~reps ~max_rounds:(if smoke then 4 else 8))
  in
  let injective_rows =
    [ "example1_bdd" ]
    |> List.filter (fun n -> sel ("rewrite/injective/" ^ n))
    |> List.map (injective_workload ~reps)
  in
  let classify_rows =
    [ "example1"; "example1_bdd"; "succ_only"; "guarded"; "sticky";
      "datalog_star" ]
    |> List.filter (fun n -> sel ("classify/" ^ n))
    |> List.map (fun n -> classify_workload ~reps n)
  in
  let provenance_rows =
    [
      ("example1", { depth = 32; atoms = 20000 }, { depth = 8; atoms = 500 });
      ("dense", { depth = 8; atoms = 20000 }, { depth = 5; atoms = 500 });
      ("inclusion", { depth = 300; atoms = 20000 }, { depth = 30; atoms = 500 });
    ]
    |> List.filter (fun (n, _, _) -> sel ("provenance/" ^ n))
    |> List.map (fun w -> provenance_workload ~reps w ~smoke)
  in
  let obs_rows =
    [
      ("example1", { depth = 32; atoms = 20000 }, { depth = 8; atoms = 500 });
      ("dense", { depth = 8; atoms = 20000 }, { depth = 5; atoms = 500 });
      ("inclusion", { depth = 300; atoms = 20000 }, { depth = 30; atoms = 500 });
    ]
    |> List.filter (fun (n, _, _) -> sel ("obs/" ^ n))
    |> List.map (fun w -> obs_workload ~reps w ~smoke)
  in
  let intern_rows =
    (if sel "intern/hom_membership" then
       [
         intern_membership_workload ~reps
           ~rounds:(if smoke then 5 else 200)
           hom_target;
       ]
     else [])
    @
    if sel "intern/rewrite_dedup" then
      [
        intern_dedup_workload ~reps
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
    |> List.map (fun w -> plan_hom_workload ~reps w ~smoke)
  in
  Json.Obj
    [
      ("schema", Json.String "nocliques/bench_chase/v2");
      ("smoke", Json.Bool smoke);
      ("host", host_json ());
      ("time_unit", Json.String "us");
      ( "note",
        Json.String
          "before = seed engines (predicate-scan Hom, full trigger \
           re-enumeration, string keys); after = positional-index Hom + \
           delta-driven chase + structural keys. intern rows: before = \
           string-based structural comparators, after = interned id \
           comparators on the same data. provenance rows: before = \
           chase with fact-level recording on, after = recording off, \
           so speedup_x100 is the recording overhead (100 = free). \
           fm rows: before = depth-first finite-model completion, after \
           = MACE-style SAT grounding, both under the same step budget \
           and forbidding an E-loop; an exhausted dfs_verdict next to a \
           definitive sat_verdict means the SAT engine settled a budget \
           the DFS could not finish. \
           plan rows: trigger enumeration alone over the chase fixpoint, \
           before = interpreted fewest-candidates-first search (the test \
           oracle), after = compiled join plans with leapfrog \
           intersection. obs rows: before = chase with every profiling layer \
           recording (telemetry + metrics + event ring), after = all \
           off, so speedup_x100 is the recording overhead (100 = free). \
           v2 adds the host block (cores, ocaml_version, os_type, git \
           describe) consumed by `nocliques debug bench-diff`, which \
           only hard-fails comparisons between runs whose host blocks \
           match. speedup_x100 = 100 * before/after." );
      ( "workloads",
        Json.List
          (chase_rows @ datalog_rows @ hom_rows @ fm_rows @ rewrite_rows
          @ injective_rows @ classify_rows @ provenance_rows @ obs_rows @ intern_rows
          @ plan_hom_rows) );
    ]

let summarize doc =
  match Json.member "workloads" doc with
  | Some (Json.List rows) ->
      List.iter
        (fun row ->
          let str k = Option.bind (Json.member k row) Json.to_str in
          let int k = Option.bind (Json.member k row) Json.to_int in
          let name =
            Fmt.str "%s/%s"
              (Option.value ~default:"?" (str "kind"))
              (Option.value ~default:"?" (str "name"))
          in
          match (int "before_us", int "after_us", int "speedup_x100") with
          | Some b, Some a, Some s ->
              Fmt.pr "%-28s %8d us -> %8d us  (%d.%02dx)@." name b a (s / 100)
                (s mod 100)
          | _ -> (
              match (int "jobs1_us", int "jobs2_us", int "jobs4_us") with
              | Some j1, Some j2, Some j4 ->
                  Fmt.pr "%-28s j1 %8d us  j2 %8d us  j4 %8d us@." name j1 j2
                    j4
              | _ ->
                  Fmt.pr "%-28s %8s    -> %8d us@." name "-"
                    (Option.value ~default:0 (int "after_us"))))
        rows
  | _ -> ()

let () =
  let argv = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" argv in
  let rec out_arg = function
    | "--out" :: path :: _ -> Some path
    | _ :: rest -> out_arg rest
    | [] -> None
  in
  let out = out_arg argv in
  let rec only_arg = function
    | "--only" :: sub :: _ -> Some sub
    | _ :: rest -> only_arg rest
    | [] -> None
  in
  let only = only_arg argv in
  let doc = run_all ~smoke ~only in
  let rendered = Fmt.str "%a" Json.pp doc in
  (* harness-rot check: the emitted document must round-trip *)
  (match Json.parse rendered with
  | Ok _ -> ()
  | Error e ->
      Fmt.epr "BENCH json does not round-trip: %s@." e;
      incr failures);
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
