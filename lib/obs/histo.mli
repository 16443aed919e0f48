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

val copy : t -> t

val scrub : t -> t
(** [count h] observations of 0: the timing-independent part of [h]. *)

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
