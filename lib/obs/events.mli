(** The vocabulary of the event timeline: interned labels, the event
    record and the timeline snapshot.

    Where a {!Telemetry} span aggregates (total time over all calls),
    the timeline keeps each span enter/exit and each marked instant as
    one timestamped record, so a trace can show which chase round
    stalled and what ran inside it. {!Telemetry} records it (see
    {!Telemetry.enable}'s [?timeline]); {!Trace_export} turns a snapshot
    into Chrome trace-event JSON (Perfetto / chrome://tracing) or
    folded stacks for flamegraphs. Labels are interned once ({!label})
    so recording an event writes four machine ints and never
    allocates. *)

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

type snapshot = {
  events : event list;  (** oldest first, in timestamp order *)
  dropped : int;  (** events overwritten by ring wrap-around *)
}

val now_us : unit -> int
(** The clock of [ts_us] and of every span time. *)
