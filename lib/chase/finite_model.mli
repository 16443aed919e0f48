(** Bounded finite-model search — the finite side of (bdd ⇒ fc).

    Finite controllability compares entailment over all models with
    entailment over {e finite} models (Section 1). This module makes the
    finite side executable at small scale: given an instance [I], a rule
    set [R] and a budget of extra domain elements, it searches for a
    finite model of [I ∧ R] by depth-first completion — every unsatisfied
    trigger is repaired by mapping the head's existential variables to
    {e existing} domain elements, in all possible ways.

    With [forbid] set to a (monotone) Boolean query, the search only
    returns models that do not satisfy it. Example 1's gap becomes a
    computation: [search ~forbid:Loop_E] fails on the transitive successor
    rules for every domain budget — every finite model has a loop — while
    the chase (an infinite model) has none. *)

open Nca_logic

val is_model : Instance.t -> Rule.t list -> bool
(** No unsatisfied trigger: every body homomorphism extends to a head
    homomorphism. *)

val violations : Instance.t -> Rule.t list -> Trigger.t list
(** The unsatisfied triggers. *)

type outcome =
  | Model of Instance.t
  | No_model
      (** search space covered completely: the bounded domain holds no
          such model — a definitive negative, not an exhaustion *)
  | Exhausted of Nca_obs.Exhausted.t
      (** a resource ran out before a verdict — which one, and where *)

type engine =
  | Dfs
      (** the hand-rolled depth-first completion — the differential
          oracle *)
  | Sat
      (** MACE-style grounding into the {!Nca_sat} solver seam, with
          iterative deepening over the number of fresh elements and
          symmetry breaking between them; every model is re-verified
          independently of the solver before being returned *)

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
    [rules] over [adom i] plus [fresh] extra elements (default 2) that
    does not satisfy [forbid]. The fresh elements are genuinely fresh
    names (never interned before), so they cannot collide with [adom i].

    [max_steps] (default 200000) intersects with [budget] and bounds the
    search steps — DFS candidates considered, or SAT solver decisions
    summed across the deepening rounds. Both engines check the step
    bound at every step and deadline/cancellation every 256 steps
    ([engine] defaults to [Dfs]; both return the same verdicts on
    constant-free rule sets, see DESIGN.md for the rule-constant
    caveat). Raises [Invalid_argument] when [fresh < 0]. *)

type verdict =
  | Exists  (** the bounded search found such a model *)
  | Absent  (** the bounded search space holds no such model *)
  | Unknown of Nca_obs.Exhausted.t
      (** a resource ran out — {e not} a proof-relevant negative: an
          exhausted search says nothing about the (bdd ⇒ fc) gap *)

val loop_free_model_exists :
  ?engine:engine -> ?fresh:int -> ?max_steps:int ->
  ?budget:Nca_obs.Budget.t ->
  e:Symbol.t -> Instance.t -> Rule.t list -> verdict
(** Three-valued so budget exhaustion can never be read as a conclusive
    answer (the seed's [bool option] invited [<> Some true] checks that
    conflated [Absent] with [Unknown]). *)
