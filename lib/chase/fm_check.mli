(** Independent re-verification of finite-model witnesses.

    A model decoded from a SAT assignment is only as trustworthy as the
    encoder and solver that produced it. This checker replays the claim
    with the generic machinery only (trigger enumeration over
    {!Nca_logic.Hom} and query satisfaction over {!Nca_logic.Cq}),
    sharing no code with the grounding or the solver: the certificate
    discipline applied to model witnesses.
    {!Finite_model.search} runs it on every model it returns, and the
    CLI once more before printing. *)

open Nca_logic

val violations : Instance.t -> Rule.t list -> Trigger.t list
(** The unsatisfied triggers: body homomorphisms that do not extend to
    a head homomorphism. *)

val check :
  ?forbid:Cq.t ->
  start:Instance.t ->
  rules:Rule.t list ->
  Instance.t ->
  (unit, string) result
(** [check ~start ~rules m] verifies that [m] contains [start], that
    every trigger of [rules] over [m] is satisfied, and that [m] does
    not satisfy [forbid]. [Error reason] pinpoints the first failure. *)
