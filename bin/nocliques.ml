(* nocliques — command-line front end to the No-Cliques-Allowed toolkit.

   Subcommands:
     chase       run the oblivious chase on a program file
     rewrite     UCQ-rewrite a query against the file's rules
     properties  syntactic + bdd report for a rule set
     lint        static analysis with typed NCA0xx diagnostics
     classify    chase-termination verdict (acyclicity hierarchy)
     surgery     run the Section-4 regalization pipeline
     analyze     full Section-5 valley/witness analysis
     tournament  Theorem-1 verdict (tournament vs loop)
     zoo         list or dump the built-in rule sets
*)

open Cmdliner
module Cterm = Cmdliner.Term
open Nca_logic
module Chase = Nca_chase.Chase
module Rewrite = Nca_rewriting.Rewrite
module Bdd = Nca_rewriting.Bdd
module Pipeline = Nca_surgery.Pipeline
module Properties = Nca_surgery.Properties
module Rulesets = Nca_core.Rulesets
module Theorem1 = Nca_core.Theorem1
module Witness = Nca_core.Witness
module Valley = Nca_core.Valley
module Lint = Nca_analysis.Lint
module Diagnostic = Nca_analysis.Diagnostic
module Json = Nca_analysis.Json
module Budget = Nca_obs.Budget
module Exhausted = Nca_obs.Exhausted
module Telemetry = Nca_obs.Telemetry
module Provenance = Nca_provenance.Provenance
module Proof = Nca_provenance.Proof
module Certificate = Nca_core.Certificate
module Proof_report = Nca_analysis.Proof_report
module Termination = Nca_analysis.Termination
module Trace_export = Nca_obs.Trace_export

(* The memory gauges of the v6 stats schema: [Nca_obs] sits below the
   term layer, so the process-wide occupancy probes are registered here
   rather than imported there. Sampled at span exits when recording is
   on. *)
let () =
  Telemetry.register_sampler "names.live_bytes" Names.live_bytes;
  Telemetry.register_sampler "atoms.count" Atom.count;
  Telemetry.register_sampler "atoms.shard_max_depth" (fun () ->
      List.fold_left (fun m (_, depth) -> max m depth) 0 (Atom.shard_stats ()))

(* Exit codes: 0 ok, 1 analysis/stage failure, 2 usage error (Cmdliner)
   or unreadable input / unwritable report, 3 budget exhausted before a
   verdict. *)
let exit_budget = 3

let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
  | exception Sys_error reason ->
      Fmt.epr "%s@." reason;
      exit 2

let zoo_program path =
  Rulesets.zoo
  |> List.find_opt (fun e -> e.Rulesets.name = path)
  |> Option.map (fun (entry : Rulesets.entry) ->
         Parser.
           { facts = entry.instance; rules = entry.rules; queries = [] })

let load path =
  match zoo_program path with
  | Some program -> program
  | None -> (
      try Parser.parse_program (read_file path)
      with Parser.Error { position; message } ->
        Fmt.epr "%s: %s@." path (Parser.error_message position message);
        exit 1)

(* common args *)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:
          "Program file (facts, rules, queries), or the name of a built-in \
           rule set (see $(b,zoo)).")

let depth_arg =
  Arg.(
    value & opt int 6
    & info [ "d"; "depth" ] ~docv:"N" ~doc:"Chase depth budget.")

let max_atoms_arg =
  Arg.(
    value & opt int 20000
    & info [ "max-atoms" ] ~docv:"N" ~doc:"Chase size budget (atoms).")

let rounds_arg =
  Arg.(
    value & opt int 10
    & info [ "rounds" ] ~docv:"N" ~doc:"Rewriting rounds budget.")

let edge_arg =
  Arg.(
    value & opt string "E"
    & info [ "e"; "edge" ] ~docv:"PRED"
        ~doc:"Binary predicate used for tournament and loop queries.")

(* observability & budget options, shared by every engine subcommand *)

type obs = {
  trace : bool;
  stats_json : bool;
  trace_json : string option;
  flame : string option;
  timeout : float option;
  provenance : bool;
}

let obs_term =
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Print the telemetry tree (spans with call counts and timings, \
             counters) to stderr after the run.")
  in
  let stats_json_arg =
    Arg.(
      value & flag
      & info [ "stats-json" ]
          ~doc:
            "Print the telemetry snapshot as one line of JSON (schema \
             nocliques/stats/v6) to stdout after the run.")
  in
  let trace_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE"
          ~doc:
            "Record an event timeline and write it as Chrome trace-event \
             JSON to $(docv) ($(b,-) for stdout) — loadable in Perfetto \
             or chrome://tracing. Written even when the run stops on an \
             exhausted budget.")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:
            "Record the event timeline and write folded stacks (self-time \
             per stack, flamegraph.pl / speedscope input) to $(docv) \
             ($(b,-) for stdout).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the engines. On expiry the run stops at \
             the next checkpoint, reports what was computed, and exits \
             with status 3.")
  in
  let provenance_arg =
    Arg.(
      value & flag
      & info [ "provenance" ]
          ~doc:
            "Record fact-level provenance during the run. Does not change \
             the command's output by itself, but populates the provenance \
             counters of --stats-json and the store behind the proof \
             artefacts (implied by --explain, --proof-json, --proof-dot).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Accepted for script compatibility and otherwise ignored: the \
             engine is sequential, so output and behaviour are the same \
             at any $(docv) >= 1.")
  in
  Cterm.(
    const (fun trace stats_json trace_json flame timeout provenance jobs ->
        if jobs < 1 then begin
          Fmt.epr "nocliques: --jobs must be >= 1 (got %d)@." jobs;
          Stdlib.exit 2
        end;
        { trace; stats_json; trace_json; flame; timeout; provenance })
    $ trace_arg $ stats_json_arg $ trace_json_arg $ flame_arg $ timeout_arg
    $ provenance_arg $ jobs_arg)

let budget_of obs =
  match obs.timeout with
  | None -> Budget.unlimited
  | Some timeout_s -> Budget.v ~timeout_s ()

let write_out path content =
  match path with
  | "-" -> print_string content
  | path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc content)

(* NOCLIQUES_SCRUB_TIMES=1 zeroes every timing-dependent field of the
   observability reports (span times, event timestamps, histogram values,
   memory gauges) so --trace / --trace-json / --stats-json output is
   byte-stable and golden-pinnable. *)
let scrub_times_requested () =
  match Sys.getenv_opt "NOCLIQUES_SCRUB_TIMES" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Run a subcommand body with recording enabled when requested; the trace
   goes to stderr (diagnostics channel), the JSON snapshot to stdout
   (machine channel), whatever status the body returns.

   Every report is emitted after the body returns or raises — in
   particular on the budget-stop paths that return exit code 3: a
   timed-out chase still yields its partial timeline and stats.
   (Corollary for command bodies: return a status, never [Stdlib.exit],
   which skips the reports.) An export that cannot be written is reported
   on one line, the other reports are still emitted, and the status
   becomes 2. *)
let with_obs obs f =
  let tracing = obs.trace_json <> None || obs.flame <> None in
  let recording = obs.trace || obs.stats_json || tracing in
  (* the timeline ring (65536 events) only runs for an export *)
  if recording then
    Telemetry.enable ?timeline:(if tracing then Some 65536 else None) ();
  if obs.provenance then Provenance.enable ();
  let export path content =
    match write_out path content with
    | () -> true
    | exception Sys_error reason ->
        Fmt.epr "nocliques: %s@." reason;
        false
  in
  let report () =
    (* a last sample: span exits take one at most once per ms *)
    Telemetry.sample_memory ();
    let snap = Telemetry.snapshot () in
    Telemetry.disable ();
    let snap =
      if scrub_times_requested () then Telemetry.scrub snap else snap
    in
    let json_ok =
      Option.fold ~none:true obs.trace_json ~some:(fun path ->
          export path (Trace_export.chrome_json snap.timeline ^ "\n"))
    in
    let flame_ok =
      Option.fold ~none:true obs.flame ~some:(fun path ->
          export path (Trace_export.folded snap.timeline))
    in
    if obs.trace then Fmt.epr "%a@." Telemetry.pp_snapshot snap;
    (* rendered while the provenance store is still live: the stats-json
       provenance object reads the ambient store *)
    if obs.stats_json then
      Fmt.pr "%s@."
        (Json.to_string (Nca_analysis.Obs_report.of_snapshot snap));
    if obs.provenance then Provenance.disable ();
    json_ok && flame_ok
  in
  match f () with
  | status -> if report () then status else 2
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (report () : bool);
      Printexc.raise_with_backtrace e bt

(* A wall-clock or cancellation stop is a failure to reach a verdict and
   gets the dedicated exit status; structural stops (depth/atoms/rounds…)
   are requested exploration bounds, already reported in-band. *)
let budget_status what = function
  | Some (e : Exhausted.t)
    when e.resource = Exhausted.Wall_clock || e.resource = Exhausted.Cancelled
    ->
      Fmt.epr "nocliques: %s stopped early: %a@." what Exhausted.pp e;
      exit_budget
  | Some _ | None -> 0

(* Surgery stages signal malformed intermediate rules with a typed
   exception; render it as a diagnostic, not a crash (the seed's toplevel
   handler was dead code: Cmdliner's [eval'] catches exceptions first and
   exited 125 with a backtrace). *)
let guarded f =
  try f ()
  with Pipeline.Stage_error { stage; reason } ->
    Fmt.epr "surgery stage %s failed: %s@." stage reason;
    1

(* proof artefacts (--proof-json / --proof-dot), shared by the
   proof-emitting subcommands *)

let proof_out_term =
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "proof-json" ] ~docv:"FILE"
          ~doc:
            "Write the proof object (schema nocliques/proof/v1) as one \
             line of JSON to $(docv) ($(b,-) for stdout). Implies \
             --provenance.")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "proof-dot" ] ~docv:"FILE"
          ~doc:
            "Write the derivation DAG as Graphviz DOT to $(docv) ($(b,-) \
             for stdout). Implies --provenance.")
  in
  Cterm.(const (fun j d -> (j, d)) $ json_arg $ dot_arg)

(* force recording whenever a proof artefact or fact-level explain was
   requested, so the store is populated by the time we read it back *)
let with_proofs obs (proof_json, proof_dot) ?(extra = false) f =
  let need = obs.provenance || proof_json <> None || proof_dot <> None in
  with_obs { obs with provenance = need || extra } f

(* The deepest derived fact of the ambient store: maximum round,
   ties broken structurally so the choice is byte-stable. *)
let deepest_fact () =
  Provenance.fold
    (fun a (e : Provenance.entry) best ->
      match best with
      | None -> Some (a, e.Provenance.round)
      | Some (b, r) ->
          if
            e.Provenance.round > r
            || (e.Provenance.round = r && Atom.compare_structural a b < 0)
          then Some (a, e.Provenance.round)
          else best)
    None

(* One DOT document for a whole certificate: the union of its support
   DAGs (each distinct fact once). *)
let certificate_dot (c : Certificate.t) =
  let seen = Hashtbl.create 64 in
  let label a = Fmt.str "%a" Atom.pp a in
  let nodes, edges =
    List.fold_left
      (fun acc p ->
        Proof.fold_distinct
          (fun (nodes, edges) (node : Proof.t) ->
            let id = label node.Proof.fact in
            if Hashtbl.mem seen id then (nodes, edges)
            else begin
              Hashtbl.add seen id ();
              let kind =
                match node.Proof.rule with
                | None -> `Input
                | Some _ -> `Derived
              in
              let edges =
                match node.Proof.rule with
                | None -> edges
                | Some r ->
                    List.fold_left
                      (fun edges (p : Proof.t) ->
                        let e =
                          (label p.Proof.fact, id, Some (Rule.name r))
                        in
                        if List.mem e edges then edges else e :: edges)
                      edges node.Proof.premises
              in
              ((id, id, kind) :: nodes, edges)
            end)
          acc p)
      ([], []) c.Certificate.support
  in
  Nca_graph.Dot.of_dag ~name:"certificate" ~nodes:(List.rev nodes)
    ~edges:(List.rev edges) ()

(* check, then write the requested artefacts; a rejected certificate is a
   hard failure — the verdict must not ship with an invalid proof *)
let emit_certificate (proof_json, proof_dot) c =
  if proof_json = None && proof_dot = None then 0
  else
    match Certificate.check c with
    | Error e ->
        Fmt.epr "nocliques: %a@." Certificate.pp_error e;
        1
    | Ok () ->
        Option.iter
          (fun path ->
            write_out path
              (Json.to_string (Proof_report.of_certificate c) ^ "\n"))
          proof_json;
        Option.iter (fun path -> write_out path (certificate_dot c)) proof_dot;
        0

let emit_proof (proof_json, proof_dot) p =
  Option.iter
    (fun path ->
      write_out path (Json.to_string (Proof_report.of_proof p) ^ "\n"))
    proof_json;
  Option.iter (fun path -> write_out path (Proof.to_dot p)) proof_dot;
  0

(* Hand-parsed FACT argument: the parser reserves the [_] prefix for
   generated names, but chase output prints nulls as [_:n<k>], and
   [explain]'s argument is exactly such printed output. Null numbering is
   deterministic per run, so re-running the chase reproduces the names. *)
let parse_fact src =
  let src = String.trim src in
  let term_of s =
    let s = String.trim s in
    if s = "" then Error "empty term"
    else if String.length s > 3 && String.sub s 0 3 = "_:n" then
      match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
      | Some k -> Ok (Term.null k)
      | None -> Error (Fmt.str "malformed null %S" s)
    else Ok (Term.cst s)
  in
  match String.index_opt src '(' with
  | None -> if src = "" then Error "empty fact" else Ok (Atom.app src [])
  | Some i ->
      if String.length src < i + 2 || src.[String.length src - 1] <> ')' then
        Error "expected a fact of the form P(t1,...,tn)"
      else
        let name = String.trim (String.sub src 0 i) in
        let inner = String.sub src (i + 1) (String.length src - i - 2) in
        let parts =
          if String.trim inner = "" then []
          else String.split_on_char ',' inner
        in
        List.fold_left
          (fun acc part ->
            Result.bind acc (fun ts ->
                Result.map (fun t -> t :: ts) (term_of part)))
          (Ok []) parts
        |> Result.map (fun ts -> Atom.app name (List.rev ts))

(* chase *)

let chase_cmd =
  let run file depth max_atoms print_instance explain explain_nulls proofs
      obs =
    let prog = load file in
    with_proofs obs proofs ~extra:explain @@ fun () ->
    let c =
      Chase.run ~max_depth:depth ~max_atoms ~budget:(budget_of obs) prog.facts
        prog.rules
    in
    Fmt.pr "chase: %a@." Chase.pp_stats c;
    if print_instance then Fmt.pr "%a@." Instance.pp c.instance;
    (* fact-level explain: works on pure-Datalog runs too, where the old
       per-null trace had nothing to say *)
    if explain then begin
      match deepest_fact () with
      | None -> Fmt.pr "no derived facts to explain@."
      | Some (a, _) ->
          Fmt.pr "derivation of the deepest derived fact:@.%a@."
            (Proof.pp ~rules:prog.rules) (Proof.of_fact a)
    end;
    if explain_nulls then begin
      let invented = Term.Set.elements (Chase.invented c) in
      let ts t = Option.value ~default:0 (Chase.timestamp c t) in
      let deepest =
        List.sort (fun a b -> Int.compare (ts b) (ts a)) invented
      in
      match deepest with
      | [] -> Fmt.pr "no invented terms to explain@."
      | t :: _ ->
          Fmt.pr "derivation of the deepest invented term:@.%a@."
            (Nca_chase.Derivation.pp ~rules:prog.rules)
            (Nca_chase.Derivation.of_term c t)
    end;
    List.iter
      (fun q -> Fmt.pr "%a  ⊨ %b@." Cq.pp q (Cq.holds c.instance q))
      prog.queries;
    let proof_status =
      if proofs = (None, None) then 0
      else
        match deepest_fact () with
        | None ->
            Fmt.epr "nocliques: no derived facts — no proof to export@.";
            1
        | Some (a, _) -> emit_proof proofs (Proof.of_fact a)
    in
    let status = budget_status "chase" c.stopped in
    if status <> 0 then status else proof_status
  in
  let print_arg =
    Arg.(value & flag & info [ "print" ] ~doc:"Print the chase instance.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the derivation of the deepest derived fact (rule, \
             round, parent facts, recursively). Implies --provenance.")
  in
  let explain_nulls_arg =
    Arg.(
      value & flag
      & info [ "explain-nulls" ]
          ~doc:
            "Print the derivation trace of the deepest invented term (the \
             per-null trace over triggers; empty on Datalog-only runs).")
  in
  Cmd.v
    (Cmd.info "chase" ~doc:"Run the oblivious chase and answer the queries.")
    Cterm.(
      const run $ file_arg $ depth_arg $ max_atoms_arg $ print_arg
      $ explain_arg $ explain_nulls_arg $ proof_out_term $ obs_term)

(* explain *)

let explain_cmd =
  let run file fact_src depth max_atoms proofs obs =
    let prog = load file in
    match parse_fact fact_src with
    | Error reason ->
        Fmt.epr "cannot parse FACT %S: %s@." fact_src reason;
        exit 2
    | Ok fact ->
        with_proofs obs proofs ~extra:true @@ fun () ->
        let c =
          Chase.run ~max_depth:depth ~max_atoms ~budget:(budget_of obs)
            prog.facts prog.rules
        in
        if not (Instance.mem fact c.Chase.instance) then begin
          Fmt.epr "fact %a is not in the chase (depth %d%s)@." Atom.pp fact
            c.Chase.depth
            (if c.Chase.saturated then ", saturated" else "");
          1
        end
        else begin
          let p = Proof.of_fact fact in
          Fmt.pr "%a@." (Proof.pp ~rules:prog.rules) p;
          Fmt.pr "depth=%d facts=%d rules={%s}@." (Proof.depth p)
            (Proof.size p)
            (String.concat ","
               (List.map (Rule.label prog.rules) (Proof.rules_used p)));
          let proof_status = emit_proof proofs p in
          let status = budget_status "chase" c.Chase.stopped in
          if status <> 0 then status else proof_status
        end
  in
  let fact_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FACT"
          ~doc:
            "The fact to explain, as printed by the chase — e.g. \
             $(b,E(a,b)) or $(b,D(_:n3,_:n3)). Nulls are numbered \
             deterministically, so names from a previous run of the same \
             command are reproduced.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Chase the program with provenance recording and print the \
          derivation DAG of one fact: which rule produced it, at which \
          round, under which homomorphism, from which parent facts — \
          recursively down to the input.")
    Cterm.(
      const run $ file_arg $ fact_arg $ depth_arg $ max_atoms_arg
      $ proof_out_term $ obs_term)

(* rewrite *)

let rewrite_cmd =
  let run file rounds query obs =
    let prog = load file in
    let q =
      match (query, prog.queries) with
      | Some src, _ -> Parser.query src
      | None, q :: _ -> q
      | None, [] ->
          Fmt.epr "no query in %s and none given with --query@." file;
          exit 1
    in
    with_obs obs @@ fun () ->
    let out =
      Rewrite.rewrite ~max_rounds:rounds ~budget:(budget_of obs) prog.rules q
    in
    Fmt.pr "rewriting of %a@." Cq.pp q;
    Fmt.pr "complete=%b rounds=%d disjuncts=%d generated=%d@." out.complete
      out.rounds (Ucq.size out.ucq) out.generated;
    Fmt.pr "%a@." Ucq.pp out.ucq;
    budget_status "rewriting" out.stopped
  in
  let query_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"QUERY"
          ~doc:"Query to rewrite, e.g. \"?(x,y) E(x,y)\".")
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Compute a UCQ rewriting (backward chaining).")
    Cterm.(const run $ file_arg $ rounds_arg $ query_arg $ obs_term)

(* properties *)

let properties_cmd =
  let run file rounds obs =
    let prog = load file in
    with_obs obs @@ fun () ->
    Fmt.pr "%a@." Properties.pp_report (Properties.describe prog.rules);
    let verdicts =
      Bdd.for_signature ~max_rounds:rounds ~budget:(budget_of obs) prog.rules
        (Rule.signature prog.rules)
    in
    List.iter
      (fun (v : Bdd.verdict) ->
        Fmt.pr "%a: %s (|UCQ|=%d)@." Cq.pp v.query
          (match v.constant with
          | Some k -> Fmt.str "bdd, constant ≤ %d" k
          | None -> "no fixpoint within budget")
          (Ucq.size v.rewriting))
      verdicts;
    Fmt.pr "bdd certified (all atomic queries): %b@."
      (Bdd.certified verdicts);
    let first_stop =
      List.find_map (fun (v : Bdd.verdict) -> v.stopped) verdicts
    in
    budget_status "bdd certification" first_stop
  in
  Cmd.v
    (Cmd.info "properties"
       ~doc:"Report syntactic properties and bdd verdicts per atomic query.")
    Cterm.(const run $ file_arg $ rounds_arg $ obs_term)

(* lint *)

let lint_cmd =
  let run file json select max_warnings list_passes =
    if list_passes then begin
      List.iter
        (fun (p : Nca_analysis.Passes.t) ->
          Fmt.pr "%s  %-20s %s@." p.code p.slug p.doc)
        Nca_analysis.Passes.registry;
      0
    end
    else begin
      let file =
        match file with
        | Some f -> f
        | None ->
            Fmt.epr "required argument FILE is missing (or use --list)@.";
            exit 2
      in
      let select =
        Option.map (List.map String.uppercase_ascii) select
      in
      (match select with
      | Some codes ->
          List.iter
            (fun c ->
              if c <> "NCA001" && Nca_analysis.Passes.find c = None then begin
                Fmt.epr "unknown diagnostic code %s (try --list)@." c;
                exit 2
              end)
            codes
      | None -> ());
      let diagnostics =
        match zoo_program file with
        | Some program -> Lint.run ?select program
        | None -> Lint.lint_source ?select (read_file file)
      in
      if json then Fmt.pr "%a@." Json.pp (Lint.report_to_json diagnostics)
      else Fmt.pr "%a" Lint.pp_report diagnostics;
      Lint.exit_status ?max_warnings diagnostics
    end
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")
  in
  let select_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "select" ] ~docv:"CODES"
          ~doc:"Comma-separated diagnostic codes to run (e.g. \
                NCA007,NCA011). Default: all passes.")
  in
  let max_warnings_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-warnings" ] ~docv:"N"
          ~doc:"Fail (exit 1) when more than $(docv) warnings are emitted.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the available passes and exit.")
  in
  let opt_file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Program file (facts, rules, queries), or the name of a \
             built-in rule set (see $(b,zoo)). Optional with $(b,--list).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes over the program and report typed \
          NCA0xx diagnostics. Exits non-zero on an error-severity \
          diagnostic, or on more than --max-warnings warnings.")
    Cterm.(
      const run $ opt_file_arg $ json_arg $ select_arg $ max_warnings_arg
      $ list_arg)

(* surgery *)

let surgery_cmd =
  let run file verify print_rules max_rounds obs =
    let prog = load file in
    with_obs obs @@ fun () ->
    guarded @@ fun () ->
    let p =
      Pipeline.regalize ?max_rounds ~budget:(budget_of obs) prog.facts
        prog.rules
    in
    List.iter
      (fun (s : Pipeline.step) ->
        Fmt.pr "step %-12s rules=%-3d %s@." s.label (List.length s.rules)
          s.note)
      p.steps;
    Fmt.pr "complete=%b final: %a@." p.complete Properties.pp_report
      (Pipeline.final_report p);
    (match Lint.of_pipeline p with
    | [] -> ()
    | ds ->
        Fmt.pr "stage invariants VIOLATED:@.";
        List.iter (fun d -> Fmt.pr "%a@." Diagnostic.pp d) ds);
    if print_rules then Fmt.pr "%a@." Rule.pp_set p.final;
    if verify then
      List.iter
        (fun (label, ok) -> Fmt.pr "chase preserved after %-12s %b@." label ok)
        (Pipeline.verify_chase_preservation ~depth:3 prog.facts prog.rules p);
    budget_status "surgery" p.stopped
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Check chase preservation (Cor. 15, Lemmas 19/24/30) on this \
                input.")
  in
  let print_arg =
    Arg.(value & flag & info [ "print" ] ~doc:"Print the final rule set.")
  in
  let rounds_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "rounds" ] ~docv:"N"
          ~doc:
            "Budget for the body-rewriting fixpoint (default 12). An \
             exhausted budget is reported as a violated stage invariant.")
  in
  Cmd.v
    (Cmd.info "surgery"
       ~doc:"Run the Section-4 regalization pipeline on the rule set.")
    Cterm.(
      const run $ file_arg $ verify_arg $ print_arg $ rounds_arg $ obs_term)

(* analyze *)

let analyze_cmd =
  let run file depth edge proofs obs =
    let prog = load file in
    let e = Symbol.make edge 2 in
    with_proofs obs proofs @@ fun () ->
    guarded @@ fun () ->
    let budget = budget_of obs in
    let p = Pipeline.regalize ~budget prog.facts prog.rules in
    Fmt.pr "regalized: %d rules, complete=%b@." (List.length p.final)
      p.complete;
    let t = Witness.analyze ~depth ~budget ~e p.final in
    Fmt.pr "Ch(R∃): %a@." Chase.pp_stats t.chase_ex;
    (match t.closure_stopped with
    | None -> ()
    | Some ex ->
        Fmt.pr "Datalog closure PARTIAL (%s) — edge counts are lower \
                bounds@."
          (Exhausted.tag ex));
    Fmt.pr "|Q_⊠| = %d (complete=%b)@." (Ucq.size t.rewriting)
      t.rewriting_complete;
    let edges = Witness.edges t in
    Fmt.pr "E-edges in Ch(Ch(R∃),R_DL): %d@." (List.length edges);
    List.iter
      (fun (s, tt) ->
        match Witness.valley_witness t s tt with
        | Some (q, _) ->
            Fmt.pr "E(%a,%a): valley witness (%a)@." Term.pp s Term.pp tt
              Valley.pp_shape (Valley.shape q)
        | None ->
            Fmt.pr "E(%a,%a): NO valley witness (budget?)@." Term.pp s
              Term.pp tt)
      edges;
    let g = Nca_graph.Digraph.of_instance e t.full in
    let tournament = Nca_graph.Tournament.max_tournament g in
    Fmt.pr "max tournament=%d loop=%b bound R(4,…,4)=%d@."
      (List.length tournament)
      (Cq.holds t.full (Cq.loop_query e))
      (Theorem1.tournament_size_bound
         ~rewriting_disjuncts:(Ucq.size t.rewriting));
    let proof_status =
      if proofs = (None, None) then 0
      else emit_certificate proofs (Certificate.of_analysis t tournament)
    in
    let first_stop =
      match p.stopped with
      | Some _ as s -> s
      | None -> (
          match t.chase_ex.Chase.stopped with
          | Some _ as s -> s
          | None -> t.closure_stopped)
    in
    let status = budget_status "analysis" first_stop in
    if status <> 0 then status else proof_status
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Full Section-5 analysis: witnesses, valleys, tournament bound.")
    Cterm.(const run $ file_arg $ depth_arg $ edge_arg $ proof_out_term
      $ obs_term)

(* tournament *)

let tournament_cmd =
  let run file depth max_atoms edge proofs obs =
    let prog = load file in
    let e = Symbol.make edge 2 in
    with_proofs obs proofs @@ fun () ->
    let v, chase =
      Theorem1.validate_full ~max_depth:depth ~max_atoms
        ~budget:(budget_of obs) ~e prog.facts prog.rules
    in
    Fmt.pr "%a@." Theorem1.pp_verdict v;
    (if v.tournament <> [] then
       Fmt.pr "tournament: {%a}@."
         Fmt.(list ~sep:comma Term.pp)
         v.tournament);
    Fmt.pr "Theorem 1 shadow (threshold 4): %b@."
      (Theorem1.implication_holds ~threshold:4 v);
    let proof_status =
      if proofs = (None, None) then 0
      else
        emit_certificate proofs
          (Certificate.of_verdict ~input:prog.facts ~e ~rules:prog.rules v
             chase)
    in
    let status = budget_status "tournament analysis" v.stopped in
    if status <> 0 then status else proof_status
  in
  Cmd.v
    (Cmd.info "tournament"
       ~doc:"Measure the largest E-tournament and loop entailment.")
    Cterm.(
      const run $ file_arg $ depth_arg $ max_atoms_arg $ edge_arg
      $ proof_out_term $ obs_term)

(* dot *)

let dot_cmd =
  let run file depth edge out =
    let prog = load file in
    let e = Symbol.make edge 2 in
    let c = Chase.run ~max_depth:depth prog.facts prog.rules in
    let g = Nca_graph.Digraph.of_instance e c.instance in
    let highlight =
      Term.Set.of_list (Nca_graph.Tournament.max_tournament g)
    in
    let doc = Nca_graph.Dot.of_graph ~name:file ~highlight g in
    (match out with
    | None -> print_string doc
    | Some path ->
        let oc = open_out path in
        output_string oc doc;
        close_out oc;
        Fmt.pr "wrote %s (max tournament highlighted)@." path);
    0
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write DOT here.")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Export the chase E-graph as Graphviz DOT, largest tournament \
             highlighted.")
    Cterm.(const run $ file_arg $ depth_arg $ edge_arg $ out_arg)

(* classes *)

let classes_cmd =
  let run file =
    let prog = load file in
    Fmt.pr "%a@." Nca_surgery.Classes.pp
      (Nca_surgery.Classes.classify prog.rules);
    (match Nca_chase.Acyclicity.offending_cycle prog.rules with
    | None -> Fmt.pr "weakly acyclic: chase terminates on every instance@."
    | Some cycle ->
        Fmt.pr "position cycle through a special edge: %a@."
          Fmt.(list ~sep:(any " → ") Nca_chase.Acyclicity.pp_position)
          cycle);
    0
  in
  Cmd.v
    (Cmd.info "classes"
       ~doc:
         "Classify the rule set (linear / guarded / sticky / weakly \
          acyclic).")
    Cterm.(const run $ file_arg)

(* classify *)

let classify_cmd =
  let run file json depth max_atoms obs =
    let prog = load file in
    with_obs obs @@ fun () ->
    let budget =
      Budget.intersect
        (Budget.v ~max_depth:depth ~max_atoms ())
        (budget_of obs)
    in
    let t = Termination.classify ~budget prog.rules in
    (* referee discipline: re-verify the certificate or witness
       independently before emitting anything — a rejected certificate
       is an analysis failure, not a verdict. Failure is a returned
       status, not [exit]: exiting here would skip the [with_obs]
       epilogue and lose the --stats-json/--trace-json payloads. *)
    match Termination.check prog.rules t.Termination.verdict with
    | Error reason ->
        Fmt.epr "nocliques: certificate rejected: %s@." reason;
        1
    | Ok () -> (
        if json then Fmt.pr "%s@." (Json.to_string (Termination.to_json t))
        else Fmt.pr "%a@." Termination.pp t;
        match t.Termination.verdict with
        | Termination.Terminating _ -> 0
        | Termination.Non_terminating _ -> 1
        | Termination.Unknown e ->
            Fmt.epr "nocliques: classification inconclusive: %a@."
              Exhausted.pp e;
            exit_budget)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the report as one line of JSON (schema \
             nocliques/classify/v1) instead of text.")
  in
  let depth_arg =
    Arg.(
      value & opt int 16
      & info [ "d"; "depth" ] ~docv:"N"
          ~doc:"Depth budget for the critical-instance chase (MFA).")
  in
  let max_atoms_arg =
    Arg.(
      value & opt int 10000
      & info [ "max-atoms" ] ~docv:"N"
          ~doc:"Atom budget for the critical-instance chase (MFA).")
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Run the chase-termination hierarchy (Datalog, weak / joint / \
          super-weak acyclicity, MFA over the critical instance) and \
          report the strongest verdict with a checkable certificate. \
          Exits 0 when termination is certified, 1 when the chase \
          provably diverges, 3 when the budget ran out first.")
    Cterm.(
      const run $ file_arg $ json_arg $ depth_arg $ max_atoms_arg $ obs_term)

(* finite *)

let witness_doc ~engine ~fresh ~forbid m =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "nocliques/fm-witness/v1");
         ( "engine",
           Json.String
             (match engine with
             | Nca_chase.Finite_model.Dfs -> "dfs"
             | Nca_chase.Finite_model.Sat -> "sat") );
         ("fresh", Json.Int fresh);
         ( "forbid",
           match forbid with
           | None -> Json.Null
           | Some q -> Json.String (Fmt.str "%a" Cq.pp q) );
         ("checked", Json.Bool true);
         ( "domain",
           Json.List
             (List.map
                (fun t -> Json.String (Term.name t))
                (Term.sorted_elements (Instance.adom m))) );
         ( "atoms",
           Json.List
             (List.map
                (fun a -> Json.String (Fmt.str "%a" Atom.pp a))
                (Instance.sorted_atoms m)) );
       ])

let finite_cmd =
  let run file fresh edge forbid_loop engine witness obs =
    let prog = load file in
    let e = Symbol.make edge 2 in
    let forbid = if forbid_loop then Some (Cq.loop_query e) else None in
    with_obs obs @@ fun () ->
    match
      Nca_chase.Finite_model.search ~engine ~fresh ?forbid
        ~budget:(budget_of obs) prog.facts prog.rules
    with
    | Model m -> (
        (* every emitted model goes through the independent checker
           first: a witness the replay rejects is an engine bug, not a
           result *)
        match
          Nca_chase.Fm_check.check ?forbid ~start:prog.facts
            ~rules:prog.rules m
        with
        | Error reason ->
            Fmt.epr
              "nocliques: model witness rejected by the independent \
               checker: %s@."
              reason;
            1
        | Ok () ->
            Fmt.pr "finite model (%d atoms): %a@." (Instance.cardinal m)
              Instance.pp m;
            Fmt.pr "Loop_%s holds in it: %b@." edge
              (Cq.holds m (Cq.loop_query e));
            Option.iter
              (fun path ->
                write_out path (witness_doc ~engine ~fresh ~forbid m ^ "\n"))
              witness;
            0)
    | No_model ->
        (* a completed search: a definitive negative, not an exhaustion *)
        Fmt.pr
          "no such finite model with %d extra elements — the bounded \
           search space holds none@."
          fresh;
        0
    | Exhausted ex ->
        (* no verdict ≠ no model: say so on stderr and in the exit code *)
        Fmt.pr "search budget exhausted — no verdict@.";
        Fmt.epr "nocliques: finite-model search stopped early: %a@."
          Exhausted.pp ex;
        exit_budget
  in
  let fresh_arg =
    Arg.(
      value & opt int 2
      & info [ "fresh" ] ~docv:"N" ~doc:"Extra domain elements.")
  in
  let forbid_arg =
    Arg.(
      value & flag
      & info [ "forbid-loop" ]
          ~doc:"Only accept models without an E-loop — refuting this shows \
                every finite model has one.")
  in
  let engine_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("dfs", Nca_chase.Finite_model.Dfs);
               ("sat", Nca_chase.Finite_model.Sat);
             ])
          Nca_chase.Finite_model.Dfs
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Search engine: $(b,dfs) (depth-first completion, the \
             differential oracle) or $(b,sat) (MACE-style grounding into \
             the built-in incremental SAT backend, with iterative \
             deepening over the fresh elements and symmetry breaking — \
             scales to much larger domains, and its negatives are \
             definitive UNSAT verdicts). Both observe the same budget; \
             every model from either engine is re-verified independently \
             before printing.")
  in
  let witness_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-json" ] ~docv:"FILE"
          ~doc:
            "Write the found model as a checkable witness (schema \
             nocliques/fm-witness/v1) to $(docv) ($(b,-) for stdout), \
             after the independent checker has re-verified it.")
  in
  Cmd.v
    (Cmd.info "finite"
       ~doc:"Search for a finite model (the finite side of fc).")
    Cterm.(
      const run $ file_arg $ fresh_arg $ edge_arg $ forbid_arg $ engine_arg
      $ witness_arg $ obs_term)

(* zoo *)

let zoo_cmd =
  let run name =
    (match name with
    | None ->
        List.iter
          (fun (e : Rulesets.entry) ->
            Fmt.pr "%-14s %s@." e.name e.description)
          Rulesets.zoo
    | Some n -> Fmt.pr "%a" Rulesets.pp_entry (Rulesets.find n));
    0
  in
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Entry to dump (omit to list).")
  in
  Cmd.v
    (Cmd.info "zoo" ~doc:"List or dump the built-in rule sets.")
    Cterm.(const run $ name_arg)

let intern_stats_cmd =
  let run file =
    let prog = load file in
    (* bytes the program would carry without interning: one string per
       name occurrence, vs one per distinct name in the table *)
    let seen = Hashtbl.create 64 in
    let name_bytes id =
      Hashtbl.replace seen id ();
      String.length (Names.name id)
    in
    let term_bytes t =
      match t with
      | Term.Var id | Term.Cst id -> name_bytes id
      | Term.Null _ -> 0
    in
    let atom_bytes a =
      name_bytes (Symbol.name_id (Atom.pred a))
      + List.fold_left (fun acc t -> acc + term_bytes t) 0 (Atom.args a)
    in
    let occurrence_bytes =
      Instance.fold (fun a acc -> acc + atom_bytes a) prog.Parser.facts 0
      + List.fold_left
          (fun acc r ->
            List.fold_left
              (fun acc a -> acc + atom_bytes a)
              acc
              (Rule.body r @ Rule.head r))
          0 prog.Parser.rules
      + List.fold_left
          (fun acc q ->
            List.fold_left
              (fun acc a -> acc + atom_bytes a)
              (List.fold_left
                 (fun acc t -> acc + term_bytes t)
                 acc (Cq.answer q))
              (Cq.body q))
          0 prog.Parser.queries
    in
    let names = Names.count () in
    let unique_bytes = Names.live_bytes () in
    Fmt.pr "intern tables after loading %s:@." file;
    Fmt.pr "  names    %6d interned, max id %d, %d bytes@." names (names - 1)
      unique_bytes;
    Fmt.pr "  symbols  %6d interned, max id %d@." (Symbol.count ())
      (Symbol.count () - 1);
    Fmt.pr "  atoms    %6d hash-consed, max id %d@." (Atom.count ())
      (Atom.count () - 1);
    let distinct_bytes =
      Hashtbl.fold
        (fun id () acc -> acc + String.length (Names.name id))
        seen 0
    in
    Fmt.pr
      "  program  %6d name-occurrence bytes over %d distinct names (%d \
       bytes) — %d saved by sharing@."
      occurrence_bytes (Hashtbl.length seen) distinct_bytes
      (occurrence_bytes - distinct_bytes);
    List.iter
      (fun (entries, depth) ->
        Fmt.pr "  atom table %d entries, max collision depth %d@." entries
          depth)
      (Atom.shard_stats ());
    0
  in
  Cmd.v
    (Cmd.info "intern-stats"
       ~doc:
         "Load a program and report intern-table statistics (name, symbol \
          and atom counts, max ids, bytes saved by sharing, hash-cons \
          collision depth).")
    Cterm.(const run $ file_arg)

let plan_cmd =
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"Emit the join graph of each body in DOT instead of text.")
  in
  let run file dot =
    let prog = load file in
    let stats = prog.Parser.facts in
    List.iter
      (fun r ->
        let plan = Plan.compile ~stats (Rule.body r) in
        if dot then
          Fmt.pr "// rule %s@.%a" (Rule.name r) Plan.pp_dot plan
        else Fmt.pr "rule %s:@.%a@." (Rule.name r) Plan.pp plan)
      prog.Parser.rules;
    List.iteri
      (fun i q ->
        let plan = Plan.compile ~stats (Cq.body q) in
        if dot then Fmt.pr "// query %d@.%a" i Plan.pp_dot plan
        else Fmt.pr "query %d:@.%a@." i Plan.pp plan)
      prog.Parser.queries;
    0
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Print the compiled join plan of every rule body (and query) of a \
          program: slot assignment and, per possible root atom, the static \
          step order with the per-position actions the executor will run.")
    Cterm.(const run $ file_arg $ dot_arg)

let termination_graph_cmd =
  let run file which out =
    let prog = load file in
    let rules = prog.Parser.rules in
    let module A = Nca_chase.Acyclicity in
    let doc =
      match which with
      | `Positions ->
          let dep = A.dependency_graph rules in
          let pos_id p = Fmt.str "%a" A.pp_position p in
          let nodes =
            List.concat_map (fun (e : A.edge) -> [ e.source; e.target ]) dep
            |> List.sort_uniq A.compare_positions
            |> List.map (fun p -> (pos_id p, pos_id p, `Derived))
          in
          let edges =
            List.map
              (fun (e : A.edge) ->
                ( pos_id e.source,
                  pos_id e.target,
                  if e.special then Some "special" else None ))
              dep
            |> List.sort_uniq compare
          in
          Nca_graph.Dot.of_dag ~name:"positions" ~nodes ~edges ()
      | `Variables ->
          let vid (k, z) = Fmt.str "%d.%a" k Term.pp z in
          let vlabel v = Fmt.str "%a" (Termination.pp_vertex rules) v in
          let nodes =
            List.concat
              (List.mapi
                 (fun k r ->
                   List.map
                     (fun z -> ((k, z), ()))
                     (Term.sorted_elements (Rule.exist_vars r)))
                 rules)
            |> List.map (fun (v, ()) -> (vid v, vlabel v, `Derived))
          in
          let edges =
            List.map
              (fun (s, t) -> (vid s, vid t, None))
              (Termination.ja_edges rules)
          in
          Nca_graph.Dot.of_dag ~name:"existential_variables" ~nodes ~edges ()
      | `Rules ->
          let rid k = string_of_int k in
          let rlabel k =
            Fmt.str "%s#%d" (Rule.name (List.nth rules k)) k
          in
          let nodes =
            List.mapi (fun k r -> (k, r)) rules
            |> List.filter (fun (_, r) -> not (Rule.is_datalog r))
            |> List.map (fun (k, _) -> (rid k, rlabel k, `Derived))
          in
          let edges =
            List.map
              (fun (s, t) -> (rid s, rid t, None))
              (Termination.swa_edges rules)
          in
          Nca_graph.Dot.of_dag ~name:"trigger_graph" ~nodes ~edges ()
    in
    (match out with
    | None -> print_string doc
    | Some path ->
        write_out path doc;
        Fmt.pr "wrote %s@." path);
    0
  in
  let which_arg =
    let graphs =
      [ ("positions", `Positions); ("variables", `Variables);
        ("rules", `Rules) ]
    in
    Arg.(
      value
      & opt (enum graphs) `Positions
      & info [ "g"; "graph" ] ~docv:"KIND"
          ~doc:
            "Which termination graph to emit: $(b,positions) (the weak-\
             acyclicity position dependency graph, special edges \
             labelled), $(b,variables) (the joint-acyclicity existential-\
             variable graph), or $(b,rules) (the super-weak-acyclicity \
             trigger graph).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write DOT here.")
  in
  Cmd.v
    (Cmd.info "termination-graph"
       ~doc:
         "Export the graphs behind the termination classifier as \
          Graphviz DOT.")
    Cterm.(const run $ file_arg $ which_arg $ out_arg)

(* debug bench-diff: the automated guard on the perf trajectory.
   Compares two BENCH_chase.json-shaped documents row by row (key =
   kind/name, metric = the after_us median) and exits nonzero when a
   shared workload slowed past the threshold and past the two
   documents' combined spread (after_iqr_us) — unless the documents are
   not commensurable (different hosts, smoke vs full, or no spread), in
   which case the diff can only warn. *)
let bench_diff_cmd =
  let run old_path new_path threshold warn_only =
    let parse path =
      match Json.parse (read_file path) with
      | Ok doc -> doc
      | Error msg ->
          Fmt.epr "nocliques: %s: invalid JSON: %s@." path msg;
          Stdlib.exit 2
    in
    let old_doc = parse old_path and new_doc = parse new_path in
    let rows path doc =
      match Option.bind (Json.member "workloads" doc) Json.to_list with
      | Some rows -> rows
      | None ->
          Fmt.epr "nocliques: %s: not a bench document (no workloads)@." path;
          Stdlib.exit 2
    in
    let old_rows = rows old_path old_doc and new_rows = rows new_path new_doc in
    let str k row = Option.bind (Json.member k row) Json.to_str in
    let int k row = Option.bind (Json.member k row) Json.to_int in
    let key row =
      Fmt.str "%s/%s"
        (Option.value ~default:"?" (str "kind" row))
        (Option.value ~default:"?" (str "name" row))
    in
    let metric = int "after_us" and spread = int "after_iqr_us" in
    (* comparability: a smoke run against a full run, absent or
       differing host metadata, or rows without a spread (bench < v3)
       mean the timings are not commensurable and the diff can only
       warn *)
    let host doc =
      match Json.member "host" doc with
      | Some h ->
          Some
            ( Option.bind (Json.member "cores" h) Json.to_int,
              Option.bind (Json.member "ocaml_version" h) Json.to_str )
      | None -> None
    in
    let smoke doc =
      match Json.member "smoke" doc with Some (Json.Bool b) -> b | _ -> false
    in
    let has_spread =
      List.for_all (fun r -> metric r = None || spread r <> None)
    in
    let incomparable =
      if smoke old_doc <> smoke new_doc then Some "smoke run vs full run"
      else if not (has_spread old_rows && has_spread new_rows) then
        Some "spread missing (bench < v3)"
      else
        match (host old_doc, host new_doc) with
        | Some h1, Some h2 when h1 = h2 -> None
        | Some _, Some _ -> Some "host blocks differ"
        | None, _ | _, None -> Some "host metadata missing (bench < v2)"
    in
    let old_tbl = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace old_tbl (key r) r) old_rows;
    let pp_iqr ppf = function
      | Some i -> Fmt.pf ppf "%6d" i
      | None -> Fmt.pf ppf "%6s" "?"
    in
    let regressions = ref 0 in
    List.iter
      (fun row ->
        let k = key row in
        match Hashtbl.find_opt old_tbl k with
        | None -> Fmt.pr "%-34s %47s (new row)@." k ""
        | Some old_row -> (
            Hashtbl.remove old_tbl k;
            match (metric old_row, metric row) with
            | Some o, Some n ->
                let delta = ((n - o) * 100) / max 1 o in
                let noise =
                  Option.value ~default:0 (spread old_row)
                  + Option.value ~default:0 (spread row)
                in
                let slower = delta > threshold && n - o > noise in
                if slower then incr regressions;
                Fmt.pr "%-34s %10d ±%a us -> %10d ±%a us  %+4d%%%s@." k o
                  pp_iqr (spread old_row) n pp_iqr (spread row) delta
                  (if slower then "  SLOWER" else "")
            | _ -> Fmt.pr "%-34s %47s (no timing)@." k ""))
      new_rows;
    Hashtbl.fold (fun k _ acc -> k :: acc) old_tbl []
    |> List.sort String.compare
    |> List.iter (fun k -> Fmt.pr "%-34s %47s (removed)@." k "");
    if !regressions = 0 then 0
    else begin
      Fmt.epr
        "nocliques: %d workload(s) slower than the %d%% threshold and the \
         combined spread@."
        !regressions threshold;
      match incomparable with
      | Some reason when not warn_only ->
          Fmt.epr "nocliques: %s: warn only@." reason;
          0
      | _ -> if warn_only then 0 else 1
    end
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD.json" ~doc:"Baseline bench document.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW.json" ~doc:"Candidate bench document.")
  in
  let threshold_arg =
    Arg.(
      value & opt int 25
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Per-workload slowdown tolerance in percent; a row counts as a \
             regression when its after_us median grew by more than \
             $(docv)% and by more than the two documents' after_iqr_us \
             combined.")
  in
  let warn_only_arg =
    Arg.(
      value & flag
      & info [ "warn-only" ]
          ~doc:
            "Report regressions but always exit 0 (for noisy CI \
             containers).")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_chase.json documents workload by workload \
          and fail on slowdowns past both the threshold and the combined \
          spread. Exits 1 only when both documents carry spreads, their \
          host blocks match (a cross-host or smoke-vs-full comparison can \
          only warn) and --warn-only is absent.")
    Cterm.(const run $ old_arg $ new_arg $ threshold_arg $ warn_only_arg)

let debug_cmd =
  Cmd.group
    (Cmd.info "debug" ~doc:"Introspection helpers for the engine internals.")
    [ intern_stats_cmd; plan_cmd; termination_graph_cmd; bench_diff_cmd ]

let () =
  let doc = "the No-Cliques-Allowed toolkit for existential rules" in
  let info = Cmd.info "nocliques" ~version:"1.0.0" ~doc in
  (* No exception handlers here: the seed's [try Cmd.eval' … with] around
     this call was dead code — Cmdliner catches exceptions inside [eval']
     and exits 125 with a backtrace, so the handlers never fired. Budget
     exhaustion is a value now (exit 3 via [budget_status]); stage errors
     are guarded inside the subcommand bodies ([guarded]). *)
  exit
    (Cmd.eval'
       (Cmd.group info
          [ chase_cmd; explain_cmd; rewrite_cmd; properties_cmd; lint_cmd;
            classify_cmd; surgery_cmd; analyze_cmd; tournament_cmd;
            classes_cmd; finite_cmd; dot_cmd; zoo_cmd; debug_cmd ]))
