(* Per-task driver of the perfbench benchmark.

   [run] executes one nocliques task — the argument list the CLI takes
   (subcommand, FILE, flags), or [valley] for examples/valley_analysis —
   through the same public library calls the CLI makes, in the same
   order, and prints the same stdout. With [--trace 1] every call is
   wrapped in a span (name, start, end, parent, task id, minor words
   allocated). Spans stay in memory and are printed at exit as one
   [#perfbench] JSON line after the task's own output, together with
   the process-level gauges (top heap, atoms created, GC collections).

   A layer nested inside one library call is measured by a replay probe
   that runs after the task: it re-runs the nested step on the inputs the
   composite's result exposes, is recorded as a child of the composite's
   span, and must reproduce the composite's result; a mismatch exits 4.
   Replays run only when tracing, so the untraced run does exactly the
   CLI's work.

   [gen] writes the seeded random linear rule sets of the zoo_sweep
   workload as .nca files.

   Usage:
     driver.exe gen --seed N --count K --out DIR
     driver.exe run [--trace 0|1] [--task-id ID] [--stats-json] -- ARGS... *)

open Nca_logic
module Chase = Nca_chase.Chase
module Trigger = Nca_chase.Trigger
module Datalog = Nca_chase.Datalog
module Finite_model = Nca_chase.Finite_model
module Fm_check = Nca_chase.Fm_check
module Rewrite = Nca_rewriting.Rewrite
module Injective = Nca_rewriting.Injective
module Bdd = Nca_rewriting.Bdd
module Pipeline = Nca_surgery.Pipeline
module Properties = Nca_surgery.Properties
module Rulesets = Nca_core.Rulesets
module Theorem1 = Nca_core.Theorem1
module Witness = Nca_core.Witness
module Valley = Nca_core.Valley
module Certificate = Nca_core.Certificate
module Lint = Nca_analysis.Lint
module Diagnostic = Nca_analysis.Diagnostic
module Json = Nca_analysis.Json
module Termination = Nca_analysis.Termination
module Budget = Nca_obs.Budget
module Exhausted = Nca_obs.Exhausted
module Telemetry = Nca_obs.Telemetry
module Metrics = Nca_obs.Metrics
module Provenance = Nca_provenance.Provenance
module Digraph = Nca_graph.Digraph
module Tournament = Nca_graph.Tournament
module Sat = Nca_sat.Fm_inst.Make (Nca_sat.Dpll)

(* the same memory probes the CLI registers, for [--stats-json] *)
let () =
  Metrics.register_sampler "names.live_bytes" Names.live_bytes;
  Metrics.register_sampler "atoms.count" Atom.count;
  Metrics.register_sampler "atoms.shard_max_depth" (fun () ->
      List.fold_left (fun m (_, depth) -> max m depth) 0 (Atom.shard_stats ()))

(* spans *)

type span = {
  id : int;
  name : string;
  parent : int;
  t0 : float;
  t1 : float;
  words : float;
}

let tracing = ref false
let recorded : span list ref = ref []
let next_id = ref 1 (* 0 is the task root *)
let current = ref 0

let record ~parent name f =
  let id = !next_id in
  incr next_id;
  let saved = !current in
  current := id;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let close () =
    let t1 = Unix.gettimeofday () in
    let words = Gc.minor_words () -. w0 in
    current := saved;
    recorded := { id; name; parent; t0; t1; words } :: !recorded
  in
  match f () with
  | v ->
      close ();
      (v, id)
  | exception e ->
      close ();
      raise e

let spanned name f =
  if !tracing then record ~parent:!current name f else (f (), -1)

let span name f = fst (spanned name f)
let replay ~parent name f = fst (record ~parent name f)

(* task results and replay counts, reported in the [#perfbench] line *)

let results : (string * int) list ref = ref []

let note key v =
  let old = Option.value ~default:0 (List.assoc_opt key !results) in
  results := (key, old + v) :: List.remove_assoc key !results

let mismatch what =
  Fmt.epr "perfbench: replay mismatch: %s@." what;
  exit 4

let expect what ok = if not ok then mismatch what

(* replay probes *)

(* Round k of the semi-naive chase enumerates the triggers over level
   k-1 that use an atom new at level k-1; the deltas are computed
   outside the timed span. *)
let enum_replay ~parent rules (c : Chase.t) =
  let rec rounds prev = function
    | [] | [ _ ] -> []
    | level :: rest ->
        let delta =
          match prev with None -> level | Some p -> Instance.diff level p
        in
        (level, delta) :: rounds (Some level) rest
  in
  let work = rounds None c.Chase.levels in
  let triggers =
    replay ~parent "chase.enum" (fun () ->
        List.fold_left
          (fun n (total, delta) ->
            n + List.length (Trigger.all_delta rules ~total ~delta))
          0 work)
  in
  note "replay.chase_triggers" triggers

let witness_replays ~parent ~depth ~e (t : Witness.t) =
  let budget = Budget.unlimited in
  let c, chase_id =
    record ~parent "chase" (fun () ->
        Chase.run ~max_depth:depth ~budget Instance.top t.Witness.existential)
  in
  expect "witness chase depth"
    (c.Chase.depth = t.Witness.chase_ex.Chase.depth
    && Instance.cardinal c.Chase.instance
       = Instance.cardinal t.Witness.chase_ex.Chase.instance);
  enum_replay ~parent:chase_id t.Witness.existential c;
  let closure =
    replay ~parent "datalog" (fun () ->
        Datalog.saturate ~max_atoms:200000 ~budget
          t.Witness.chase_ex.Chase.instance t.Witness.datalog)
  in
  (match closure with
  | Ok total -> expect "datalog closure" (Instance.equal total t.Witness.full)
  | Error { Datalog.partial; _ } ->
      expect "datalog partial closure" (Instance.equal partial t.Witness.full));
  let inj =
    replay ~parent "injective" (fun () ->
        Injective.injective_rewriting ~budget t.Witness.rules
          (Cq.atom_query e))
  in
  expect "injective rewriting"
    (Ucq.size inj.Rewrite.ucq = Ucq.size t.Witness.rewriting
    && inj.Rewrite.complete = t.Witness.rewriting_complete);
  note "injective.disjuncts" (Ucq.size inj.Rewrite.ucq)

(* Fm_inst's iterative deepening, one ground and one solve span per
   domain size. *)
let sat_replay ~parent ?forbid ~fresh start rules outcome =
  let base = Term.sorted_elements (Instance.adom start) in
  let fresh =
    List.init fresh (fun _ ->
        Term.cst (Names.name (Names.fresh ~prefix:"m" ())))
  in
  let consts = Nca_sat.Fm_inst.rule_constants ~domain:(base @ fresh) rules in
  let budget = Budget.v ~max_steps:200000 () in
  let steps_left = ref budget.Budget.max_steps in
  let rec deepen k =
    if k > List.length fresh then `No_model
    else
      let sym_break = List.filteri (fun i _ -> i < k) fresh in
      let domain = base @ sym_break @ consts in
      let round_budget = { budget with Budget.max_steps = !steps_left } in
      match
        replay ~parent "sat.ground" (fun () ->
            Sat.instantiate ?forbid ~budget:round_budget ~domain ~sym_break
              start rules)
      with
      | exception Nca_sat.Fm_inst.Stop _ -> `Exhausted
      | inst -> (
          let solved =
            replay ~parent "sat.solve" (fun () ->
                Sat.solve_inst ~budget:round_budget inst)
          in
          let st = Nca_sat.Dpll.stats inst.Sat.solver in
          note "replay.sat_clauses" st.Nca_sat.Solver_intf.clauses;
          (match !steps_left with
          | Some n ->
              steps_left :=
                Some (max 0 (n - st.Nca_sat.Solver_intf.decisions))
          | None -> ());
          match solved with
          | `Sat _ -> `Model
          | `Unsat -> deepen (k + 1)
          | `Unknown _ -> `Exhausted)
  in
  let replayed = deepen 0 in
  expect "sat deepening verdict"
    (match (outcome, replayed) with
    | Finite_model.Model _, `Model
    | Finite_model.No_model, `No_model
    | Finite_model.Exhausted _, `Exhausted ->
        true
    | _ -> false)

(* Bdd.for_signature is one Rewrite.rewrite per atomic query. *)
let rewrite_replays ~parent ~rounds rules (verdicts : Bdd.verdict list) =
  List.iter
    (fun (v : Bdd.verdict) ->
      let o =
        replay ~parent "rewrite" (fun () ->
            Rewrite.rewrite ~max_rounds:rounds ~budget:Budget.unlimited rules
              v.Bdd.query)
      in
      expect "bdd rewriting"
        (Ucq.size o.Rewrite.ucq = Ucq.size v.Bdd.rewriting
        && o.Rewrite.complete = Option.is_some v.Bdd.constant);
      note "rewrite.kept" (Ucq.size o.Rewrite.ucq);
      note "rewrite.generated" o.Rewrite.generated)
    verdicts

(* task arguments: the subset of the CLI's flags the benchmark uses *)

type args = {
  cmd : string;
  file : string;
  depth : int option;
  fresh : int;
  proof_json : string option;
  verify : bool;
  forbid_loop : bool;
}

let parse_args argv =
  let rec go a = function
    | [] -> a
    | ("-d" | "--depth") :: n :: rest ->
        go { a with depth = Some (int_of_string n) } rest
    | "--fresh" :: n :: rest -> go { a with fresh = int_of_string n } rest
    | "--proof-json" :: f :: rest -> go { a with proof_json = Some f } rest
    | "--verify" :: rest -> go { a with verify = true } rest
    | "--forbid-loop" :: rest -> go { a with forbid_loop = true } rest
    (* the only engine configuration the benchmark drives *)
    | ("--engine" :: "sat" :: rest | "--jobs" :: "1" :: rest) -> go a rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
        go { a with file = f } rest
    | flag :: _ ->
        Fmt.epr "perfbench driver: unsupported flag %s@." flag;
        exit 2
  in
  match argv with
  | [] ->
      Fmt.epr "perfbench driver: no task@.";
      exit 2
  | cmd :: rest ->
      go
        {
          cmd;
          file = "";
          depth = None;
          fresh = 2;
          proof_json = None;
          verify = false;
          forbid_loop = false;
        }
        rest

(* the CLI's loader: a zoo name, else a .nca file *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let zoo_program name =
  Rulesets.zoo
  |> List.find_opt (fun e -> e.Rulesets.name = name)
  |> Option.map (fun (entry : Rulesets.entry) ->
         Parser.{ facts = entry.instance; rules = entry.rules; queries = [] })

let load path =
  span "parser" @@ fun () ->
  match zoo_program path with
  | Some program -> program
  | None -> (
      try Parser.parse_program (read_file path)
      with Parser.Error { position; message } ->
        Fmt.epr "%s: %s@." path (Parser.error_message position message);
        exit 1)

let render f = span "render" f
let edge = Symbol.make "E" 2

(* subcommands, mirroring bin/nocliques.ml *)

let tournament a =
  let prog = load a.file in
  let depth = Option.value ~default:6 a.depth in
  let c, chase_id =
    spanned "chase" (fun () ->
        Chase.run ~max_depth:depth ~max_atoms:20000 ~budget:Budget.unlimited
          prog.facts prog.rules)
  in
  let g = span "graph.build" (fun () -> Chase.e_graph edge c) in
  let tournament = span "tournament" (fun () -> Tournament.max_tournament g) in
  let loop_level =
    span "loop" (fun () -> Chase.holds_at c (Cq.loop_query edge))
  in
  let v =
    {
      Theorem1.depth = c.Chase.depth;
      saturated = c.Chase.saturated;
      stopped = c.Chase.stopped;
      atoms = Instance.cardinal c.Chase.instance;
      max_tournament = List.length tournament;
      tournament;
      loop = Option.is_some loop_level;
      loop_level;
    }
  in
  render (fun () ->
      Fmt.pr "%a@." Theorem1.pp_verdict v;
      if v.tournament <> [] then
        Fmt.pr "tournament: {%a}@." Fmt.(list ~sep:comma Term.pp) v.tournament;
      Fmt.pr "Theorem 1 shadow (threshold 4): %b@."
        (Theorem1.implication_holds ~threshold:4 v));
  note "tournament.size" v.max_tournament;
  let replays () = enum_replay ~parent:chase_id prog.rules c in
  (0, replays)

let guarded f =
  try f ()
  with Pipeline.Stage_error { stage; reason } ->
    Fmt.epr "surgery stage %s failed: %s@." stage reason;
    (1, fun () -> ())

let analyze a =
  let prog = load a.file in
  let depth = Option.value ~default:6 a.depth in
  let budget = Budget.unlimited in
  if a.proof_json <> None then Provenance.enable ();
  guarded @@ fun () ->
  let p =
    span "surgery.regalize" (fun () ->
        Pipeline.regalize ~budget prog.facts prog.rules)
  in
  render (fun () ->
      Fmt.pr "regalized: %d rules, complete=%b@." (List.length p.final)
        p.complete);
  let t, witness_id =
    spanned "witness.analyze" (fun () ->
        Witness.analyze ~depth ~budget ~e:edge p.final)
  in
  render (fun () ->
      Fmt.pr "Ch(R∃): %a@." Chase.pp_stats t.chase_ex;
      (match t.closure_stopped with
      | None -> ()
      | Some ex ->
          Fmt.pr "Datalog closure PARTIAL (%s) — edge counts are lower bounds@."
            (Exhausted.tag ex));
      Fmt.pr "|Q_⊠| = %d (complete=%b)@." (Ucq.size t.rewriting)
        t.rewriting_complete);
  let edges = span "witness.valley" (fun () -> Witness.edges t) in
  render (fun () ->
      Fmt.pr "E-edges in Ch(Ch(R∃),R_DL): %d@." (List.length edges));
  List.iter
    (fun (s, tt) ->
      let w = span "witness.valley" (fun () -> Witness.valley_witness t s tt) in
      render (fun () ->
          match w with
          | Some (q, _) ->
              Fmt.pr "E(%a,%a): valley witness (%a)@." Term.pp s Term.pp tt
                Valley.pp_shape (Valley.shape q)
          | None ->
              Fmt.pr "E(%a,%a): NO valley witness (budget?)@." Term.pp s
                Term.pp tt))
    edges;
  note "witness.edges" (List.length edges);
  let g = span "graph.build" (fun () -> Digraph.of_instance edge t.full) in
  let tournament = span "tournament" (fun () -> Tournament.max_tournament g) in
  let loop = span "loop" (fun () -> Cq.holds t.full (Cq.loop_query edge)) in
  let bound =
    span "ramsey" (fun () ->
        Theorem1.tournament_size_bound
          ~rewriting_disjuncts:(Ucq.size t.rewriting))
  in
  render (fun () ->
      Fmt.pr "max tournament=%d loop=%b bound R(4,…,4)=%d@."
        (List.length tournament) loop bound);
  note "tournament.size" (List.length tournament);
  let status =
    match a.proof_json with
    | None -> 0
    | Some path -> (
        let c =
          span "certificate.build" (fun () ->
              Certificate.of_analysis t tournament)
        in
        match span "certificate.check" (fun () -> Certificate.check c) with
        | Error e ->
            Fmt.epr "nocliques: %a@." Certificate.pp_error e;
            1
        | Ok () ->
            render (fun () ->
                let oc = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () ->
                    output_string oc
                      (Json.to_string
                         (Nca_analysis.Proof_report.of_certificate c)
                      ^ "\n")));
            0)
  in
  let replays () = witness_replays ~parent:witness_id ~depth ~e:edge t in
  (status, replays)

let surgery a =
  let prog = load a.file in
  guarded @@ fun () ->
  let p =
    span "surgery.regalize" (fun () ->
        Pipeline.regalize ~budget:Budget.unlimited prog.facts prog.rules)
  in
  render (fun () ->
      List.iter
        (fun (s : Pipeline.step) ->
          Fmt.pr "step %-12s rules=%-3d %s@." s.label (List.length s.rules)
            s.note)
        p.steps;
      Fmt.pr "complete=%b final: %a@." p.complete Properties.pp_report
        (Pipeline.final_report p);
      match Lint.of_pipeline p with
      | [] -> ()
      | ds ->
          Fmt.pr "stage invariants VIOLATED:@.";
          List.iter (fun d -> Fmt.pr "%a@." Diagnostic.pp d) ds);
  note "surgery.rules_out" (List.length p.final);
  if a.verify then begin
    let rows =
      span "surgery.verify" (fun () ->
          Pipeline.verify_chase_preservation ~depth:3 prog.facts prog.rules p)
    in
    render (fun () ->
        List.iter
          (fun (label, ok) ->
            Fmt.pr "chase preserved after %-12s %b@." label ok)
          rows)
  end;
  (0, fun () -> ())

let properties a =
  let prog = load a.file in
  let rounds = 10 in
  let report =
    span "properties.describe" (fun () -> Properties.describe prog.rules)
  in
  render (fun () -> Fmt.pr "%a@." Properties.pp_report report);
  let verdicts, bdd_id =
    spanned "bdd" (fun () ->
        Bdd.for_signature ~max_rounds:rounds ~budget:Budget.unlimited
          prog.rules (Rule.signature prog.rules))
  in
  render (fun () ->
      List.iter
        (fun (v : Bdd.verdict) ->
          Fmt.pr "%a: %s (|UCQ|=%d)@." Cq.pp v.query
            (match v.constant with
            | Some k -> Fmt.str "bdd, constant ≤ %d" k
            | None -> "no fixpoint within budget")
            (Ucq.size v.rewriting))
        verdicts;
      Fmt.pr "bdd certified (all atomic queries): %b@." (Bdd.certified verdicts));
  let replays () =
    rewrite_replays ~parent:bdd_id ~rounds prog.rules verdicts
  in
  (0, replays)

let finite a =
  let prog = load a.file in
  let forbid = if a.forbid_loop then Some (Cq.loop_query edge) else None in
  let outcome, search_id =
    spanned "fm.search" (fun () ->
        Finite_model.search ~engine:Finite_model.Sat ~fresh:a.fresh ?forbid
          ~budget:Budget.unlimited prog.facts prog.rules)
  in
  let status =
    match outcome with
    | Finite_model.Model m -> (
        match
          span "fm_check" (fun () ->
              Fm_check.check ?forbid ~start:prog.facts ~rules:prog.rules m)
        with
        | Error reason ->
            Fmt.epr
              "nocliques: model witness rejected by the independent \
               checker: %s@."
              reason;
            1
        | Ok () ->
            render (fun () ->
                Fmt.pr "finite model (%d atoms): %a@." (Instance.cardinal m)
                  Instance.pp m;
                Fmt.pr "Loop_E holds in it: %b@."
                  (Cq.holds m (Cq.loop_query edge)));
            0)
    | Finite_model.No_model ->
        render (fun () ->
            Fmt.pr
              "no such finite model with %d extra elements — the bounded \
               search space holds none@."
              a.fresh);
        0
    | Finite_model.Exhausted ex ->
        render (fun () ->
            Fmt.pr "search budget exhausted — no verdict@.";
            Fmt.epr "nocliques: finite-model search stopped early: %a@."
              Exhausted.pp ex);
        3
  in
  let replays () =
    sat_replay ~parent:search_id ?forbid ~fresh:a.fresh prog.facts prog.rules
      outcome
  in
  (status, replays)

let lint a =
  let source =
    span "parser" (fun () ->
        match zoo_program a.file with
        | Some program -> Either.Left program
        | None -> Either.Right (read_file a.file))
  in
  let diagnostics, lint_id =
    match source with
    | Either.Left program -> (span "lint" (fun () -> Lint.run program), None)
    | Either.Right src ->
        let ds, id = spanned "lint" (fun () -> Lint.lint_source src) in
        (ds, Some (id, src))
  in
  render (fun () -> Fmt.pr "%a" Lint.pp_report diagnostics);
  let replays () =
    (* lint_source parses inside the lint call *)
    Option.iter
      (fun (parent, src) ->
        ignore (replay ~parent "parser" (fun () -> Parser.parse_program src)))
      lint_id
  in
  (Lint.exit_status diagnostics, replays)

let classify a =
  let prog = load a.file in
  let budget =
    Budget.intersect
      (Budget.v ~max_depth:(Option.value ~default:16 a.depth) ~max_atoms:10000 ())
      Budget.unlimited
  in
  let t = span "classify" (fun () -> Termination.classify ~budget prog.rules) in
  match
    span "classify.check" (fun () ->
        Termination.check prog.rules t.Termination.verdict)
  with
  | Error reason ->
      Fmt.epr "nocliques: certificate rejected: %s@." reason;
      (1, fun () -> ())
  | Ok () ->
      render (fun () -> Fmt.pr "%a@." Termination.pp t);
      let status =
        match t.Termination.verdict with
        | Termination.Terminating _ -> 0
        | Termination.Non_terminating _ -> 1
        | Termination.Unknown e ->
            Fmt.epr "nocliques: classification inconclusive: %a@."
              Exhausted.pp e;
            3
      in
      (status, fun () -> ())

(* examples/valley_analysis.ml *)
let valley () =
  let entry = Rulesets.example1_bdd in
  render (fun () -> Fmt.pr "== %s ==@.%a@." entry.name Rule.pp_set entry.rules);
  let pipeline =
    span "surgery.regalize" (fun () ->
        Pipeline.regalize entry.instance entry.rules)
  in
  render (fun () ->
      Fmt.pr "pipeline complete=%b, final rules=%d@." pipeline.complete
        (List.length pipeline.final);
      Fmt.pr "final properties: %a@." Properties.pp_report
        (Pipeline.final_report pipeline));
  note "surgery.rules_out" (List.length pipeline.final);
  let t, witness_id =
    spanned "witness.analyze" (fun () ->
        Witness.analyze ~depth:4 ~e:entry.e pipeline.final)
  in
  render (fun () -> Fmt.pr "Ch(R∃): %a@." Chase.pp_stats t.chase_ex);
  let dag =
    span "graph.build" (fun () ->
        Digraph.Term_graph.is_dag
          (Digraph.of_instance entry.e t.chase_ex.instance))
  in
  render (fun () -> Fmt.pr "Ch(R∃) DAG: %b@." dag);
  let edges = span "witness.valley" (fun () -> Witness.edges t) in
  render (fun () ->
      Fmt.pr "full atoms=%d, E-edges=%d, Q_inj size=%d complete=%b@."
        (Instance.cardinal t.full) (List.length edges) (Ucq.size t.rewriting)
        t.rewriting_complete);
  note "witness.edges" (List.length edges);
  (match edges with
  | (s, tt) :: _ ->
      render (fun () -> Fmt.pr "first edge: E(%a,%a)@." Term.pp s Term.pp tt);
      let ws = span "witness.valley" (fun () -> Witness.witnesses t s tt) in
      render (fun () -> Fmt.pr "|W(s,t)| = %d@." (List.length ws));
      let w = span "witness.valley" (fun () -> Witness.valley_witness t s tt) in
      render (fun () ->
          match w with
          | Some (q, _) ->
              Fmt.pr "valley witness: %a (shape %a)@." Cq.pp q
                Valley.pp_shape (Valley.shape q)
          | None -> Fmt.pr "no valley witness found@.")
  | [] -> render (fun () -> Fmt.pr "no E edges@."));
  let g = span "graph.build" (fun () -> Digraph.of_instance entry.e t.full) in
  let size = span "tournament" (fun () -> Tournament.max_tournament_size g) in
  let loop =
    span "loop" (fun () -> Cq.holds t.full (Cq.loop_query entry.e))
  in
  render (fun () ->
      Fmt.pr "max tournament in full: %d; loop: %b@." size loop);
  note "tournament.size" size;
  let replays () =
    witness_replays ~parent:witness_id ~depth:4 ~e:entry.e t
  in
  (0, replays)

let dispatch a =
  match a.cmd with
  | "tournament" -> tournament a
  | "analyze" -> analyze a
  | "surgery" -> surgery a
  | "properties" -> properties a
  | "finite" -> finite a
  | "lint" -> lint a
  | "classify" -> classify a
  | "valley" -> valley ()
  | cmd ->
      Fmt.epr "perfbench driver: unknown task %s@." cmd;
      exit 2

let span_json s =
  Json.List
    [
      Json.Int s.id;
      Json.String s.name;
      Json.Int s.parent;
      Json.Int (int_of_float (s.t0 *. 1e6));
      Json.Int (int_of_float (s.t1 *. 1e6));
      Json.Int (int_of_float s.words);
    ]

let run ~trace ~task_id ~stats_json argv =
  let a = parse_args argv in
  tracing := trace;
  if stats_json then begin
    Telemetry.enable ();
    Metrics.enable ()
  end;
  let atoms0 = Atom.count () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let status, replays = dispatch a in
  let t1 = Unix.gettimeofday () in
  let words = Gc.minor_words () -. w0 in
  let gc = Gc.quick_stat () in
  let atoms_created = Atom.count () - atoms0 in
  let live_bytes = Names.live_bytes () in
  if stats_json then begin
    let metrics = Metrics.snapshot () in
    Metrics.disable ();
    let snap = Telemetry.snapshot () in
    Telemetry.disable ();
    Fmt.pr "%s@."
      (Json.to_string (Nca_analysis.Obs_report.of_snapshot ~metrics snap))
  end;
  if trace then begin
    recorded :=
      { id = 0; name = "task"; parent = -1; t0; t1; words } :: !recorded;
    replays ()
  end;
  if Provenance.enabled () then Provenance.disable ();
  let doc =
    Json.Obj
      [
        ("task", Json.String task_id);
        ("status", Json.Int status);
        ("wall_us", Json.Int (int_of_float ((t1 -. t0) *. 1e6)));
        ("top_heap_words", Json.Int gc.Gc.top_heap_words);
        ("major_collections", Json.Int gc.Gc.major_collections);
        ("atoms_created", Json.Int atoms_created);
        ("names_live_bytes", Json.Int live_bytes);
        ( "results",
          Json.Obj
            (List.map (fun (k, v) -> (k, Json.Int v)) (List.rev !results)) );
        ("spans", Json.List (List.rev_map span_json !recorded));
      ]
  in
  print_string ("#perfbench " ^ Json.to_string doc ^ "\n");
  exit status

(* seeded inputs *)

let nca_of_program facts rules =
  let atoms l = String.concat ", " (List.map (Fmt.str "%a" Atom.pp) l) in
  String.concat ""
    (List.map (fun a -> Fmt.str "%a.\n" Atom.pp a) (Instance.sorted_atoms facts)
    @ List.map
        (fun r ->
          Fmt.str "%s: %s -> %s.\n" (Rule.name r) (atoms (Rule.body r))
            (atoms (Rule.head r)))
        rules)

let gen ~seed ~count ~out =
  for i = 0 to count - 1 do
    let s = (seed * 1009) + i in
    let rules =
      Rulesets.random_forward_existential_rules ~seed:s ~rules:(2 + (s mod 6))
    in
    let facts =
      Rulesets.random_instance ~seed:s ~constants:3 ~atoms:4
        (Rule.signature rules)
    in
    let oc = open_out_bin (Filename.concat out (Fmt.str "rnd%02d.nca" i)) in
    output_string oc (nca_of_program facts rules);
    close_out oc
  done

let () =
  let usage () =
    Fmt.epr
      "usage: driver.exe gen --seed N --count K --out DIR@.       driver.exe \
       run [--trace 0|1] [--task-id ID] [--stats-json] -- ARGS...@.";
    exit 2
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; "--seed"; seed; "--count"; count; "--out"; out ] -> (
      match (int_of_string_opt seed, int_of_string_opt count) with
      | Some seed, Some count -> gen ~seed ~count ~out
      | _ -> usage ())
  | "run" :: rest ->
      let rec opts trace task_id stats = function
        | "--trace" :: v :: rest -> opts (v = "1") task_id stats rest
        | "--task-id" :: id :: rest -> opts trace id stats rest
        | "--stats-json" :: rest -> opts trace task_id true rest
        | "--" :: argv -> run ~trace ~task_id ~stats_json:stats argv
        | _ -> usage ()
      in
      opts false "" false rest
  | _ -> usage ()
