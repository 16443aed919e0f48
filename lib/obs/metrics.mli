(** Metrics: the histogram and memory-gauge part of the {!Telemetry}
    store.

    [Metrics] owns no store: {!Telemetry.observe}, {!Telemetry.timed}
    and [Telemetry.span ~histo] feed the histograms,
    {!Telemetry.sample_memory} the gauges, and the CLI renders both into
    the [histograms] and [memory] blocks of the v6 stats schema. *)

module Histo = Histo

type snapshot = Telemetry.metrics = {
  histos : (string * Histo.t) list;  (** frozen copies, sorted by name *)
  gauges : (string * (int * int)) list;  (** name, (last, max); sorted *)
}

(** {1 Pinned by perfbench}

    [perfbench/driver] calls these names; they go with the next change
    to the benchmark. *)

val register_sampler : string -> (unit -> int) -> unit
(** {!Telemetry.register_sampler}. *)

val enable : unit -> unit
(** {!Telemetry.enable} unless recording is already on. *)

val snapshot : unit -> snapshot
(** The [metrics] of {!Telemetry.snapshot}. *)

val disable : unit -> unit
(** Does nothing: the store is shared, and {!Telemetry.disable} drops
    it. *)
