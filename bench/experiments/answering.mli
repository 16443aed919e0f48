(** Ontology-based query answering (OBQA), the paper's motivating task.

    [⟨I, R⟩ ⊨ q(t̄)] can be decided two ways for bdd rule sets:
    - {e forward}: materialize a chase prefix and evaluate [q] on it
      (complete up to the bdd-constant of [q], Definition 3);
    - {e backward}: rewrite [q] into a UCQ and evaluate it on the
      database alone (Definition 2).

    Both are provided, together with a cross-check — the executable form
    of Proposition 4's equivalence. Lemma 5's composition of rewritings
    across a union of rule sets is exposed as {!rewrite_composed}. *)

open Nca_logic

val answers_via_chase :
  ?depth:int -> ?max_atoms:int -> Rule.t list -> Instance.t -> Cq.t ->
  Term.t list list
(** Certain answers over the chase prefix, restricted to database terms
    (nulls are not certain answers). *)

val answers_via_rewriting :
  ?max_rounds:int -> ?max_disjuncts:int -> Rule.t list -> Instance.t ->
  Cq.t -> Term.t list list option
(** Certain answers by evaluating the rewriting on the database; [None]
    when the rewriting did not reach its fixpoint within budget. *)

val entails :
  ?depth:int -> ?max_rounds:int -> Rule.t list -> Instance.t -> Cq.t -> bool
(** Boolean entailment, preferring the rewriting when complete and
    falling back to the chase. *)

val methods_agree :
  ?depth:int -> ?max_rounds:int -> Rule.t list -> Instance.t -> Cq.t ->
  bool option
(** Proposition 4 in executable form: both methods return the same
    answer set. [None] when the rewriting is incomplete (nothing to
    compare against soundly). *)

val rewrite_composed :
  ?max_rounds:int -> ?max_disjuncts:int -> ?budget:Nca_obs.Budget.t ->
  Rule.t list -> Rule.t list -> Cq.t -> Nca_rewriting.Rewrite.outcome
(** Lemma 5: rewrite against [r2], then rewrite the result against [r1] —
    a rewriting for [r1 ∪ r2] whenever the chases commute
    ([Ch(Ch(I,R₁),R₂) ↔ Ch(I,R₁∪R₂)]). *)
