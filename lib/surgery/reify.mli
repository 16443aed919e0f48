(** Reification to binary signatures (Section 4.2).

    For a predicate [A] of arity [n ≥ 3], [reify(A)] is a set of fresh
    binary predicates [A₁, …, A_n]; an atom [α = A(x₁, …, x_n)] becomes
    [{Aᵢ(xᵢ, x_α) | 1 ≤ i ≤ n}] with [x_α] a fresh term naming the atom
    itself. (The paper's Section 4.2 writes the index set as [1 < i ≤ n];
    we follow Feller et al., from which the construction is taken, and
    keep all positions — dropping position 1 would lose information and
    break Lemma 19.) At-most-binary atoms are untouched.

    Lemma 19: [Ch(reify(J), reify(S)) ↔ reify(Ch(J, S))].
    Lemma 20: reification preserves UCQ-rewritability. *)

open Nca_logic

val signature : Symbol.Set.t -> Symbol.Set.t
(** [reify(S)]: at-most-binary predicates kept, each higher-arity [A]
    replaced by [A₁ … A_n]. *)

val atom : fresh:(unit -> Term.t) -> Atom.t -> Atom.t list
(** Reify one atom, drawing the atom-name term from [fresh]. *)

val instance : Instance.t -> Instance.t
(** Atom names are fresh nulls. *)

val rules : Rule.t list -> Rule.t list
(** Reify a rule set: body-atom names become fresh universal variables,
    head-atom names fresh existential variables. *)

val cq : Cq.t -> Cq.t
(** Reify a query: atom names become fresh existential variables. *)

val needed : Rule.t list -> bool
(** Whether the rule set mentions any predicate of arity [≥ 3]. *)
