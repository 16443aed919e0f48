(** Telemetry: cheap counters, per-stage timers and hierarchical spans.

    The observability half of [Nca_obs]: engines record named counters
    ({!count}/{!incr}) and wrap their phases in named {!span}s (chase
    rounds, saturation strata, rewrite iterations, pipeline stages).
    Spans nest by dynamic extent, so a chase running inside the
    body-rewriting stage of the pipeline shows up under that stage in
    the tree.

    Recording is off by default and gated on one slot: when disabled,
    every entry point is a single slot read and an immediate return —
    engine output and hot-path timings are unchanged (asserted by the
    golden byte-identity tests and the bench regression bound).
    Instrumentation sits at round/stage granularity, never per-atom.

    The API is deliberately ambient rather than threaded: budgets
    (which change results) travel explicitly as {!Budget.t} values,
    telemetry (which must not) stays ambient in one module-level slot. *)

val enabled : unit -> bool
(** Whether telemetry is recording. *)

val enable : unit -> unit
(** Install a fresh, empty store and start recording. *)

val disable : unit -> unit
(** Stop recording and drop the store. *)

val count : string -> int -> unit
(** [count name n] adds [n] to counter [name]. No-op when disabled. *)

val incr : string -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f] under span [name], nested inside the
    innermost open span. Re-entering a name under the same parent
    accumulates (calls, total time). When disabled, [span name f] is
    [f ()]. Exceptions propagate; the span is closed either way.

    Spans also feed the deeper profiling layers when those are enabled:
    enter/exit become {!Events} timeline records
    and every exit samples the {!Metrics} memory gauges — so enabling
    [Events] alone (without telemetry) still yields a full timeline. *)

(** {1 Snapshots} *)

type span_stats = {
  span_name : string;
  calls : int;
  time_us : int;  (** total inclusive wall time, microseconds *)
  children : span_stats list;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  spans : span_stats list;  (** top-level spans, first-seen order *)
}

val snapshot : unit -> snapshot
(** Freeze the store (empty snapshot when disabled). *)

val scrub_times : snapshot -> snapshot
(** Zero every [time_us] — deterministic snapshots for golden tests. *)

val pp_snapshot : snapshot Fmt.t
(** The human tree rendered by [nocliques --trace]. *)
