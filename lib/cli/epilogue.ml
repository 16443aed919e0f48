open Nca_logic
module Budget = Nca_obs.Budget
module Exhausted = Nca_obs.Exhausted
module Telemetry = Nca_obs.Telemetry
module Trace_export = Nca_obs.Trace_export
module Provenance = Nca_provenance.Provenance
module Json = Nca_analysis.Json
module Rulesets = Nca_core.Rulesets

(* The memory gauges of the v6 stats schema: [Nca_obs] sits below the
   term layer, so the process-wide occupancy probes are registered here
   rather than imported there. Sampled at span exits when recording is
   on. *)
let () =
  Telemetry.register_sampler "names.live_bytes" Names.live_bytes;
  Telemetry.register_sampler "atoms.count" Atom.count;
  Telemetry.register_sampler "atoms.shard_max_depth" (fun () ->
      List.fold_left (fun m (_, depth) -> max m depth) 0 (Atom.shard_stats ()))

type obs = {
  trace : bool;
  stats_json : bool;
  trace_json : string option;
  flame : string option;
  timeout : float option;
  provenance : bool;
}

type proofs = { proof_json : string option; proof_dot : string option }

let no_proofs = { proof_json = None; proof_dot = None }

type artefact = { path : string; content : string; note : string option }

type outcome = {
  status : int;
  stop : (string * Exhausted.t) option;
  artefacts : artefact list;
}

let verdict = { status = 0; stop = None; artefacts = [] }
let failed = { verdict with status = 1 }
let no_verdict = { verdict with status = 3 }
let written artefacts = { verdict with artefacts }

let with_stop what stop outcome =
  { outcome with stop = Option.map (fun e -> (what, e)) stop }

exception Usage of string
exception Invalid of string

let budget obs =
  match obs.timeout with
  | None -> Budget.unlimited
  | Some timeout_s -> Budget.v ~timeout_s ()

(* a directory opens fine and only fails on the read, whose message does
   not name the path *)
let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error reason when not (String.starts_with ~prefix:path reason) ->
    raise (Sys_error (path ^ ": " ^ reason))

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
        raise
          (Invalid
             (Fmt.str "%s: %s" path (Parser.error_message position message))))

(* The one writer: [-] is stdout; a path that cannot be written is
   reported on one line and the write reports failure. *)
let write { path; content; note } =
  match path with
  | "-" ->
      print_string content;
      true
  | path -> (
      match
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc content)
      with
      | () ->
          Option.iter (Fmt.pr "%s@.") note;
          true
      | exception Sys_error reason ->
          Fmt.epr "nocliques: %s@." reason;
          false)

(* NOCLIQUES_SCRUB_TIMES=1 zeroes every timing-dependent field of the
   observability reports (span times, event timestamps, histogram values,
   memory gauges) so --trace / --trace-json / --stats-json output is
   byte-stable and golden-pinnable. *)
let scrub_times_requested () =
  match Sys.getenv_opt "NOCLIQUES_SCRUB_TIMES" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Run [f] with recording enabled when requested; the trace goes to
   stderr (diagnostics channel), the JSON snapshot to stdout (machine
   channel), whatever status [f] returns — in particular on the
   budget-stop paths that return exit code 3: a timed-out chase still
   yields its partial timeline and stats. An export that cannot be
   written is reported on one line, the other reports are still emitted,
   and the status becomes 2. *)
let recording obs f =
  let tracing = obs.trace_json <> None || obs.flame <> None in
  let recording = obs.trace || obs.stats_json || tracing in
  (* the timeline ring (65536 events) only runs for an export *)
  if recording then
    Telemetry.enable ?timeline:(if tracing then Some 65536 else None) ();
  if obs.provenance then Provenance.enable ();
  let export path content = write { path; content; note = None } in
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
  if not (recording || obs.provenance) then f ()
  else
    match f () with
    | status -> if report () then status else 2
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (report () : bool);
        Printexc.raise_with_backtrace e bt

(* The typed errors a command may raise, each a one-line diagnostic and
   a status: 2 for usage and I/O, 1 for a malformed input or a surgery
   stage that rejected its intermediate rules. Anything else is a bug
   and propagates. *)
let guard f k =
  let fail status line =
    Fmt.epr "%s@." line;
    status
  in
  match f () with
  | x -> k x
  | exception (Usage line | Sys_error line) -> fail 2 line
  | exception Invalid line -> fail 1 line
  | exception Nca_surgery.Pipeline.Stage_error { stage; reason } ->
      fail 1 (Fmt.str "surgery stage %s failed: %s" stage reason)

(* Artefacts first, then the stop line: a wall-clock or cancellation stop
   is a failure to reach a verdict and gets status 3 over the body's own;
   structural stops (depth/atoms/rounds…) are requested exploration
   bounds, already reported in-band. An artefact that could not be
   written gives 2 over both. *)
let finish { status; stop; artefacts } =
  let written = List.for_all Fun.id (List.map write artefacts) in
  let status =
    match stop with
    | Some (what, (e : Exhausted.t))
      when e.resource = Exhausted.Wall_clock
           || e.resource = Exhausted.Cancelled ->
        Fmt.epr "nocliques: %s stopped early: %a@." what Exhausted.pp e;
        3
    | Some _ | None -> status
  in
  if written then status else 2

let run ~obs ?(proofs = no_proofs) ?(provenance = false) command =
  let provenance = obs.provenance || provenance || proofs <> no_proofs in
  guard command @@ fun body ->
  recording { obs with provenance } @@ fun () ->
  guard (fun () -> body (budget obs)) finish

let plain command = guard command finish
