(** The resource governor: one budget value for every engine.

    A {!t} bundles every bound an engine loop may consult — a wall-clock
    deadline, depth/round/atom/step/disjunct limits, and a cooperative
    cancellation callback. Engines thread a single budget through their
    loops and consult the relevant checkpoints
    ({!interrupted}/{!depth}/{!rounds}/{!atoms}/{!steps}/{!disjuncts});
    each checkpoint either passes ([None]) or yields a typed
    {!Exhausted.t} verdict the engine returns to its caller.

    Budgets are declarative data, not callbacks into engines: composing
    two budgets with {!intersect} takes the tighter bound of each
    resource, so a CLI-level wall-clock budget combines transparently
    with an engine's default structural bounds. All fields are exposed;
    [None] means unbounded. *)

type t = {
  deadline : float option;  (** absolute epoch seconds *)
  timeout_ms : int;  (** the original timeout, for reporting (0 if none) *)
  max_depth : int option;  (** chase levels *)
  max_rounds : int option;  (** saturation / rewriting rounds *)
  max_atoms : int option;  (** instance size *)
  max_steps : int option;  (** SAT solver decisions / generated CQs *)
  max_disjuncts : int option;  (** UCQ size *)
  cancel : (unit -> bool) option;  (** cooperative cancellation *)
}

val unlimited : t
(** No bound on anything. *)

val v :
  ?timeout_s:float ->
  ?max_depth:int ->
  ?max_rounds:int ->
  ?max_atoms:int ->
  ?max_steps:int ->
  ?max_disjuncts:int ->
  ?cancel:(unit -> bool) ->
  unit ->
  t
(** Build a budget. [timeout_s] is relative to now and becomes an
    absolute deadline. *)

val intersect : t -> t -> t
(** Pointwise tighter bound: min of each limit, earliest deadline,
    disjunction of the cancellation callbacks. *)

val is_unlimited : t -> bool

(** {1 Checkpoints}

    Each returns [Some verdict] when the corresponding bound is
    exhausted. The comparison direction of each helper replicates the
    seed engine it replaced ([depth] and [rounds_reached] stop at
    [used >= limit]; the rest at [used > limit]), so budgeted runs stop
    at exactly the same point as the pre-governor code. *)

val interrupted : t -> Exhausted.t option
(** The asynchronous checkpoints: cancellation first, then the deadline.
    Cheap when neither is set (two [option] matches, no syscall). *)

val depth : t -> used:int -> Exhausted.t option
val rounds : t -> used:int -> Exhausted.t option

val rounds_reached : t -> used:int -> Exhausted.t option
(** Like {!rounds} but stopping at [used >= limit] — the rewriting
    fixpoint's convention. *)

val atoms : t -> used:int -> Exhausted.t option
val steps : t -> used:int -> Exhausted.t option
val disjuncts : t -> used:int -> Exhausted.t option
