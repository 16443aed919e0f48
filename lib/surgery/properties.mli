(** Syntactic and empirical properties of rule sets.

    The regality ingredients (Definition 27): UCQ-rewritability is checked
    by {!Nca_rewriting.Bdd}; forward-existentiality and
    predicate-uniqueness are syntactic and checked here; quickness
    (Definition 26) is semantic, so this module provides a falsification
    harness over sample instances (the [rew] surgery guarantees quickness
    by Lemma 32 — the harness cross-checks it). *)

open Nca_logic

val is_forward_existential : Rule.t list -> bool
(** Definition 21: in every rule, every binary head atom [A(x, y)] has
    [x] in the frontier and [y] existential. Unary and nullary head atoms
    are unconstrained (they create no edges; cf. the head [A₀^ρ(w)] that
    [∇] itself produces). Datalog rules are always accepted. *)

val is_predicate_unique : Rule.t list -> bool
(** Definition 22: in every non-Datalog rule every predicate occurs at
    most once in the head. *)

val is_binary : Rule.t list -> bool
(** All predicates of the rule set have arity at most 2. *)

val quickness_counterexample :
  ?depth:int -> Rule.t list -> Instance.t list -> (Instance.t * Atom.t) option
(** Definition 26 falsifier: searches the samples for an instance [I] and
    an atom [β ∈ Ch(I, R) ∖ Ch₁(I, R)] all of whose terms lie in
    [adom(I)]. [None] means quickness was not refuted on the samples. *)

val is_quick_on : ?depth:int -> Rule.t list -> Instance.t list -> bool

type report = {
  binary : bool;
  forward_existential : bool;
  predicate_unique : bool;
  datalog_count : int;
  existential_count : int;
}

val describe : Rule.t list -> report
val pp_report : report Fmt.t
