(** The one epilogue of every [nocliques] subcommand.

    A command runs in two stages. The first loads and validates its
    input with recording off; the second takes the run's budget and
    computes, with recording on when requested, and returns an
    {!outcome}. {!run} then writes the outcome's artefacts, prints the
    stop line, emits the observability reports and returns the exit
    status:

    - 0: a verdict;
    - 1: a failure — a rejected certificate or witness, a malformed
      program, a surgery stage error, a negative verdict that is
      reported as a failure ([classify], [lint]);
    - 2: a usage error, an unreadable input or an unwritable artefact
      or report;
    - 3: no verdict — a wall-clock or cancellation stop.

    An unwritable artefact or report gives 2 over everything; a budget
    stop gives 3 over the body's own status. This module is the only
    place that writes a file and the only place that maps a [Sys_error]
    or a typed input error to a status. *)

open Nca_logic

(** The observability and budget options shared by the engine
    subcommands. *)
type obs = {
  trace : bool;  (** the telemetry tree on stderr *)
  stats_json : bool;  (** one [nocliques/stats/v6] line on stdout *)
  trace_json : string option;  (** Chrome trace-event JSON to a path *)
  flame : string option;  (** folded stacks to a path *)
  timeout : float option;  (** the wall-clock budget, in seconds *)
  provenance : bool;  (** record fact-level provenance *)
}

val budget : obs -> Nca_obs.Budget.t
(** The budget of [obs.timeout], started now. *)

(** The proof artefact paths ([--proof-json], [--proof-dot]; [-] is
    stdout). Requesting one turns provenance recording on. *)
type proofs = { proof_json : string option; proof_dot : string option }

val no_proofs : proofs

type artefact = {
  path : string;  (** [-] for stdout *)
  content : string;
  note : string option;  (** a stdout line once written to a file *)
}

type outcome = {
  status : int;  (** the body's own status, 0–3 as above *)
  stop : (string * Nca_obs.Exhausted.t) option;
      (** why the engine stopped early, with the run's name for the stop
          line *)
  artefacts : artefact list;  (** written in order *)
}

val verdict : outcome
(** Status 0, no stop, no artefacts. *)

val failed : outcome
(** Status 1. *)

val no_verdict : outcome
(** Status 3. *)

val written : artefact list -> outcome
(** Status 0 with these artefacts. *)

val with_stop : string -> Nca_obs.Exhausted.t option -> outcome -> outcome
(** [with_stop what stop o] is [o] with the engine's [stop], named
    [what] in the stop line. *)

exception Usage of string
(** A usage error found by a command: the one-line diagnostic. Status 2. *)

exception Invalid of string
(** A malformed input: the one-line diagnostic. Status 1. *)

val read_file : string -> string
(** The file's bytes; raises [Sys_error] naming the path. *)

val zoo_program : string -> Parser.program option
(** The built-in rule set of that name, as a program without queries. *)

val load : string -> Parser.program
(** A built-in rule set by name, else the program in that file. Raises
    [Sys_error] when the file cannot be read and {!Invalid} with the
    parser's position message when it does not parse. *)

val run :
  obs:obs ->
  ?proofs:proofs ->
  ?provenance:bool ->
  (unit -> Nca_obs.Budget.t -> outcome) ->
  int
(** [run ~obs command] runs the first stage [command ()], then the
    second under [obs] (provenance recording forced on by [provenance]
    or by a requested proof artefact), and returns the exit status. *)

val plain : (unit -> outcome) -> int
(** {!run} for a command with one stage and no recording. *)
