(** Injective rewritings (Definition 2 rephrased, Proposition 6).

    For every UCQ [Q] there is a UCQ [Q_inj] — the disjunction of all
    {e specializations} of every disjunct — such that [I ⊨ Q(ā)] iff some
    disjunct of [Q_inj] holds {e injectively} for [ā]. A specialization of
    a CQ identifies some of its variables (a partition of its variable
    set); this is the construction in the proof of Proposition 6.

    The disjuncts of an injective UCQ may not be minimized by plain
    subsumption: injective entailment is not monotone under homomorphisms.
    Only duplicates up to {!iso_cq} are removed. *)

open Nca_logic

val specializations : Cq.t -> Cq.t list
(** All specializations of the CQ, one per partition of its variable set
    (answer variables map to answer variables). The identity specialization
    comes first. Raises [Invalid_argument] beyond 10 variables (Bell-number
    blowup). *)

val of_ucq : Ucq.t -> Ucq.t
(** [Q_inj] as in Proposition 6: every specialization of every disjunct,
    in order, except that a specialization [q] is dropped when
    [iso_cq q k] holds for a disjunct [k] kept before it. *)

val injective_rewriting :
  ?max_rounds:int -> ?max_disjuncts:int -> ?budget:Nca_obs.Budget.t ->
  Rule.t list -> Cq.t -> Rewrite.outcome
(** [rew_inj(q, R)]: the plain rewriting (minimized) followed by the
    specialization closure. The [ucq] field of the result is [Q_inj]. *)

val iso_cq : Cq.t -> Cq.t -> bool
(** [iso_cq q q'] holds when [q] and [q'] have the same number of body
    atoms, of distinct body atoms, of answer positions and of variables,
    and a homomorphism maps [q]'s body into [q']'s body and [q]'s answer
    tuple onto [q']'s pointwise, injectively on the variables outside the
    answer tuple (whose images are also kept off the answer images).

    Every isomorphism qualifies, but the answer map need not be
    injective, so this is weaker than isomorphism and not symmetric:
    [iso_cq (?(x0,x1) :- E(x0,x0), E(x0,x1)) (?(x0,x0) :- E(v,x0), E(x0,x0))]
    holds (x0 and x1 both map to x0) and the converse does not. *)
