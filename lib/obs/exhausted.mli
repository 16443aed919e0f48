(** Typed exhaustion verdicts.

    Every engine bound in the toolkit — chase depth, saturation rounds,
    atom counts, rewrite steps, finite-model solver decisions, wall-clock
    deadlines, cooperative cancellation — reports running out through one
    value of this type, instead of the seed's mix of exceptions,
    [truncated] flags and silent [None]s. A verdict says {e which}
    resource ran out, at what limit, and how far the engine got, so front
    ends can render a uniform diagnostic and callers can distinguish
    "no" from "don't know". *)

type resource =
  | Wall_clock  (** the {!Budget.t} deadline passed *)
  | Cancelled  (** the budget's cancellation callback fired *)
  | Depth  (** chase levels ([used >= limit] stops) *)
  | Rounds  (** saturation / rewriting rounds *)
  | Atoms  (** instance size *)
  | Steps  (** generic step count (SAT solver decisions, generated CQs) *)
  | Disjuncts  (** UCQ size during rewriting *)

type t = {
  resource : resource;
  limit : int;  (** the configured bound ([Wall_clock]: the timeout in ms,
                    0 when only an absolute deadline was known) *)
  used : int;  (** the value that tripped the bound (0 for [Wall_clock]
                   and [Cancelled]) *)
}

val cancelled : t
(** The cancellation verdict. *)

val tag : t -> string
(** Short stable machine tag for the resource ("atoms", "wall-clock", …),
    used in JSON stats and log lines. *)

val pp : t Fmt.t
(** Human-readable one-line diagnostic. *)

val to_string : t -> string
