(** Metrics: log₂-bucketed latency/size histograms and memory gauges.

    The distribution half of the profiling layer: where {!Telemetry}
    counters give totals and {!Events} gives timelines, [Metrics]
    answers "what was the p99 chase-round latency" and "how big did the
    major heap get". Engines feed named histograms ({!observe}) at
    round/solve granularity and the CLI renders them into the
    [histograms] block of the v6 stats schema; {!sample_memory} reads
    [Gc.quick_stat] plus any {!register_sampler}ed process gauges
    (interned-name bytes, hash-cons occupancy) into the [memory] block.

    Same ambient, single-slot-read-when-disabled discipline as
    {!Telemetry} and {!Events}. *)

module Histo : sig
  (** A log₂-bucketed histogram over non-negative integers. Bucket [b]
      (for [b >= 1]) holds values in [[2{^b-1}, 2{^b} - 1]]; bucket 0
      holds values [<= 0]. 64 fixed buckets, so a histogram is O(1)
      memory no matter how many observations it absorbs, and
      percentiles are exact up to bucket resolution (a reported
      percentile always falls in the same bucket as the true one). *)

  type t

  val create : unit -> t
  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int
  val max_value : t -> int

  val bucket_of : int -> int
  (** The bucket index a value lands in. *)

  val bucket_upper : int -> int
  (** Inclusive upper bound of a bucket: [2{^b} - 1] (0 for bucket 0). *)

  val percentile : t -> int -> int
  (** [percentile h p] for [p] in [1..100]: an upper bound on the value
      at rank [ceil (p/100 * count)], clamped to {!max_value} — always
      in the same log₂ bucket as the exact percentile. 0 when empty. *)

  type summary = {
    count : int;
    sum : int;
    max : int;
    p50 : int;
    p90 : int;
    p99 : int;
  }

  val summary : t -> summary
end

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val observe : string -> int -> unit
(** Feed one value into the named histogram. No-op when disabled. *)

val gauge : string -> int -> unit
(** Set the named gauge's current value, tracking its max. No-op when
    disabled. *)

val register_sampler : string -> (unit -> int) -> unit
(** Register a process-wide memory/occupancy probe run by every
    {!sample_memory}. [Nca_obs] sits below the term layer, so the CLI
    registers [Names.live_bytes]-style probes here at startup instead
    of this library importing them. Process-global; re-registering a
    name replaces the probe. *)

val sample_memory : unit -> unit
(** Record [Gc.quick_stat] minor/major/heap words plus every registered
    sampler as gauges. Called from span exits when enabled ({!Telemetry}
    hooks it), callable directly. No-op when disabled. *)

type snapshot = {
  histos : (string * Histo.t) list;  (** frozen copies, sorted by name *)
  gauges : (string * (int * int)) list;  (** name, (last, max); sorted *)
}

val snapshot : unit -> snapshot
(** Freeze the store (histograms are deep copies). *)

val scrub : snapshot -> snapshot
(** Zero every timing-dependent field (sums, maxima, percentiles, gauge
    values), keeping observation counts — deterministic snapshots for
    golden tests. *)
