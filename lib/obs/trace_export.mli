(** Render an {!Events} snapshot for external profiling UIs.

    {!chrome_json} emits Chrome trace-event JSON — the array-of-events
    format both [chrome://tracing] and {{:https://ui.perfetto.dev}
    Perfetto} load directly. Every event carries [pid = 1] and
    [tid = 0]: the engine is sequential, so a trace has one lane.
    Timestamps are rebased to the earliest event so traces start at 0.

    {!folded} emits folded-stacks text ([stack;frames count] lines,
    one per unique stack, self-time in microseconds) — the input
    format of Brendan Gregg's [flamegraph.pl] and of speedscope.
    Instants don't contribute; unmatched begins are closed at the last
    timestamp seen (a budget-stopped run still yields a well-formed
    flamegraph). *)

val chrome_json : Events.snapshot -> string
(** An object [{"traceEvents": [...], "droppedEvents": n}]. Begin/End
    pairs become ["B"]/["E"] slices, instants ["i"] with thread scope;
    an event's [arg] (when [>= 0]) is exposed as [args.v]. *)

val folded : Events.snapshot -> string
(** Folded stacks of the single track. *)
