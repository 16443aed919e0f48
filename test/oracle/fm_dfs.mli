(** Depth-first completion: the reference finite-model search the
    SAT-backed {!Nca_chase.Finite_model.search} is differentially tested
    against, and the "before" side of the bench's [fm/*] rows.

    Every unsatisfied trigger is repaired by mapping the head's
    existential variables to {e existing} domain elements — [adom start]
    in name order, then [fresh] never-interned names — in all possible
    ways. Candidates are tried in {!Nca_sat.Fm_inst.assignments} order. *)

open Nca_logic

val search :
  ?fresh:int ->
  ?max_steps:int ->
  ?forbid:Cq.t ->
  ?budget:Nca_obs.Budget.t ->
  Instance.t ->
  Rule.t list ->
  Nca_chase.Finite_model.outcome
(** Same contract as {!Nca_chase.Finite_model.search}, except that a
    step is a search node or a candidate considered (not a solver
    decision) and constants that only the rules mention are not part of
    the domain. [max_steps] defaults to 200000. Every step checks the
    step bound, every 256th the deadline and cancellation. Raises
    [Invalid_argument] when [fresh < 0]. *)

val loop_free_model_exists :
  ?fresh:int ->
  ?max_steps:int ->
  ?budget:Nca_obs.Budget.t ->
  e:Symbol.t ->
  Instance.t ->
  Rule.t list ->
  Nca_chase.Finite_model.verdict
(** {!search} with [forbid] the loop query of [e]. *)
