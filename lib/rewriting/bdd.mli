(** Bounded derivation depth (Definition 3) and its checks.

    A rule set has bdd iff every CQ admits a finite UCQ rewriting
    (Proposition 4). Semantic bdd-ness is undecidable in general, so this
    module provides:
    - a {e certificate} check: the rewriting of a query reaches a fixpoint
      within a budget, yielding the rewriting and an upper bound on the
      bdd-constant;
    - a whole-signature check over the atomic queries of a signature
      (sufficient in practice for the experiment suite).

    The chase-side check of Definition 2 on sample instances is a test
    oracle ([Nca_oracle.Bdd_sample]). *)

open Nca_logic

type verdict = {
  query : Cq.t;
  constant : int option;  (** upper bound on [bdd(q, R)]; [None] = budget out *)
  rewriting : Ucq.t;
  stopped : Nca_obs.Exhausted.t option;
      (** which resource ended the rewriting; [None] iff a fixpoint was
          reached ([constant] is [Some _]) *)
}

val for_query :
  ?max_rounds:int -> ?max_disjuncts:int -> ?budget:Nca_obs.Budget.t ->
  Rule.t list -> Cq.t -> verdict

val for_signature :
  ?max_rounds:int -> ?max_disjuncts:int -> ?budget:Nca_obs.Budget.t ->
  Rule.t list -> Symbol.Set.t -> verdict list
(** One verdict per atomic query [P(x̄)] of the signature. *)

val certified : verdict list -> bool
(** All verdicts have a finite constant. *)
