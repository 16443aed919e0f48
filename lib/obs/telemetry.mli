(** Telemetry: the one recorder of [Nca_obs].

    Engines add to named counters ({!count}), wrap their phases in named
    {!span}s (chase rounds, saturation strata, pipeline stages), feed
    log₂ histograms ({!observe}, {!timed}, [span ~histo]) and mark
    timeline {!instant}s. One store holds the counters, the span tree,
    the histograms, the memory gauges and, with [enable ~timeline], a
    ring of timestamped events. Spans nest by dynamic extent, so a
    chase inside a pipeline stage shows up under that stage.

    Recording is off by default and gated on one module-level slot:
    when off, every entry point is a single slot read and an immediate
    return — engine output and hot-path timings are unchanged (asserted
    by the golden byte-identity tests and the bench regression bound).
    Instrumentation sits at round/stage granularity, never per-atom.

    The API is deliberately ambient rather than threaded: budgets
    (which change results) travel explicitly as {!Budget.t} values,
    measurements (which must not) stay ambient. Fact-level provenance
    is a separate store ([Nca_provenance.Provenance]): it records
    results that proofs and certificates consume, not measurements. *)

val enabled : unit -> bool
(** Whether recording is on. *)

val enable : ?timeline:int -> unit -> unit
(** Install a fresh, empty store and start recording. [~timeline:cap]
    also records the event timeline in a ring of [cap] slots (at least
    16): wrap-around overwrites the oldest events and counts them as
    dropped, so a traced run's memory is bounded. *)

val disable : unit -> unit
(** Stop recording and drop the store. *)

val count : string -> int -> unit
(** [count name n] adds [n] to counter [name]. *)

val incr : string -> unit

val observe : string -> int -> unit
(** Feed one value into the named histogram. *)

val instant : ?arg:int -> int -> unit
(** [instant lbl] puts a point event ({!Events.label}) on the timeline. *)

val span : ?histo:string -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f] under span [name], nested inside the
    innermost open span. Re-entering a name under the same parent
    accumulates (calls, total time). [~histo] also observes the span's
    time in that histogram when [f] returns. When off, [span name f] is
    [f ()]. Exceptions propagate; the span is closed either way. One
    clock read per edge serves the tree, the histogram and the timeline;
    exits also sample the memory gauges, at most once per millisecond. *)

val timed : string -> (unit -> 'a) -> 'a
(** [timed histo f] observes [f]'s wall time in [histo] when [f]
    returns, without a span. *)

val register_sampler : string -> (unit -> int) -> unit
(** Register a process-wide memory/occupancy probe run by every
    {!sample_memory}. [Nca_obs] sits below the term layer, so the CLI
    registers [Names.live_bytes]-style probes at startup instead of
    this library importing them. Re-registering a name replaces the
    probe. *)

val sample_memory : unit -> unit
(** Set the memory gauges: [gc.minor_words] and [gc.major_words]
    (current at the call), [gc.heap_words] (as of the last collection),
    plus every registered probe. Each gauge keeps its last and its
    maximum value. *)

(** {1 Snapshots} *)

type span_stats = {
  span_name : string;
  calls : int;
  time_us : int;  (** total inclusive wall time, microseconds *)
  children : span_stats list;
}

type metrics = {
  histos : (string * Histo.t) list;  (** frozen copies, sorted by name *)
  gauges : (string * (int * int)) list;  (** name, (last, max); sorted *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  spans : span_stats list;  (** top-level spans, first-seen order *)
  metrics : metrics;
  timeline : Events.snapshot;  (** empty without [~timeline] *)
}

val snapshot : unit -> snapshot
(** Freeze the store (empty snapshot when off). *)

val scrub : snapshot -> snapshot
(** Zero every timing-dependent field — span times, histogram values
    (keeping observation counts), gauges, event timestamps — for
    deterministic golden output. *)

val pp_snapshot : snapshot Fmt.t
(** The human tree rendered by [nocliques --trace]. *)
