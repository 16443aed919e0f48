(** Bounded finite-model search — the finite side of (bdd ⇒ fc).

    Finite controllability compares entailment over all models with
    entailment over {e finite} models (Section 1). This module makes the
    finite side executable at small scale: given an instance [I], a rule
    set [R] and a budget of extra domain elements, it looks for a finite
    model of [I ∧ R] by MACE-style grounding into the {!Nca_sat} solver
    seam, with iterative deepening over the number of fresh elements and
    symmetry breaking between them. Every model is re-verified by
    {!Fm_check} before it is returned.

    With [forbid] set to a (monotone) Boolean query, the search only
    returns models that do not satisfy it. Example 1's gap becomes a
    computation: [search ~forbid:Loop_E] fails on the transitive successor
    rules for every domain budget — every finite model has a loop — while
    the chase (an infinite model) has none. *)

open Nca_logic

type outcome =
  | Model of Instance.t
  | No_model
      (** search space covered completely: the bounded domain holds no
          such model — a definitive negative, not an exhaustion *)
  | Exhausted of Nca_obs.Exhausted.t
      (** a resource ran out before a verdict — which one, and where *)

(** {1 Pinned by perfbench}

    [perfbench/driver] passes [~engine:Sat]; the type and the argument
    go with the next change to the benchmark. *)

type engine = Sat  (** the only engine; [?engine] is ignored *)

val search :
  ?engine:engine ->
  ?fresh:int ->
  ?max_steps:int ->
  ?forbid:Cq.t ->
  ?budget:Nca_obs.Budget.t ->
  Instance.t ->
  Rule.t list ->
  outcome
(** [search ~fresh ~forbid i rules] looks for a finite model of [i] and
    [rules] over [adom i], the constants the rules mention, and up to
    [fresh] extra elements (default 2), that does not satisfy [forbid].
    The fresh elements are genuinely fresh names (never interned before),
    so they cannot collide with [adom i].

    [max_steps] (default 200000) intersects with [budget] and bounds the
    solver decisions, summed across the deepening rounds. A step is a
    decision, so a verdict that unit propagation alone reaches needs
    none: [max_steps:0] still decides such a search. The step bound is
    checked at every decision, the deadline and cancellation every 256
    decisions and during grounding. Raises [Invalid_argument] when
    [fresh < 0], and [Failure] if a model fails {!Fm_check.check} (an
    engine bug, never a result). *)

type verdict =
  | Exists  (** the bounded search found such a model *)
  | Absent  (** the bounded search space holds no such model *)
  | Unknown of Nca_obs.Exhausted.t
      (** a resource ran out — {e not} a proof-relevant negative: an
          exhausted search says nothing about the (bdd ⇒ fc) gap *)

val loop_free_model_exists :
  ?fresh:int -> ?max_steps:int -> ?budget:Nca_obs.Budget.t ->
  e:Symbol.t -> Instance.t -> Rule.t list -> verdict
(** Three-valued so budget exhaustion can never be read as a conclusive
    answer (the seed's [bool option] invited [<> Some true] checks that
    conflated [Absent] with [Unknown]). *)
