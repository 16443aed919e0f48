(** Event tracing: a fixed-capacity ring buffer of timestamped
    begin/end/instant events.

    Where {!Telemetry} aggregates (a span's total time over all calls),
    [Events] keeps the {e timeline}: each span enter/exit and each
    marked instant is one timestamped record, so a trace can show which
    chase round stalled and what ran inside it.
    {!Trace_export} turns a snapshot into Chrome trace-event JSON
    (Perfetto / chrome://tracing) or folded stacks for flamegraphs.

    Same ambient discipline as {!Telemetry}: recording is off by
    default, every entry point reads one module-level slot and returns
    immediately when disabled. Labels are interned once ({!label}) so
    the hot path records four machine ints and never allocates; the
    ring has fixed capacity, wrap-around overwrites the oldest events
    and counts them as {!type-snapshot}[.dropped] — memory use is
    bounded no matter how long a traced run lasts. *)

type phase = Begin | End | Instant

type event = {
  phase : phase;
  label : int;  (** interned via {!label}; resolve with {!label_name} *)
  ts_us : int;  (** absolute wall clock, microseconds *)
  arg : int;  (** small payload (round number, batch size); -1 = none *)
}

val label : string -> int
(** Intern [name] to a dense id (process-global, stable for the life
    of the process). Call once at module init and keep the
    id: recording with a pre-interned label is allocation-free. *)

val label_name : int -> string
(** Inverse of {!label}. Raises [Invalid_argument] on unknown ids. *)

val enabled : unit -> bool
(** Whether events are being recorded. *)

val enable : ?capacity:int -> unit -> unit
(** Install a fresh ring of [capacity] slots (default 65536) and start
    recording. *)

val disable : unit -> unit

val instant : ?arg:int -> int -> unit
(** [instant lbl] records a point event. No-op when disabled. *)

val enter : ?arg:int -> int -> unit
(** Record the beginning of a slice (Chrome phase ["B"]). *)

val leave : int -> unit
(** Record the end of a slice (Chrome phase ["E"]). *)

type snapshot = {
  events : event list;  (** oldest first, in timestamp order *)
  dropped : int;  (** events overwritten by ring wrap-around *)
}

val snapshot : unit -> snapshot
(** Freeze the ring (empty snapshot when disabled). *)

val scrub_times : snapshot -> snapshot
(** Zero every timestamp — deterministic snapshots for golden tests
    (see [NOCLIQUES_SCRUB_TIMES] in the CLI). *)

val now_us : unit -> int
(** The clock used for [ts_us]. *)
