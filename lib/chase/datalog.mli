(** Semi-naive bottom-up evaluation for Datalog rule sets.

    The Section-5 decomposition (Lemma 33) computes [Ch(Ch(S^∃), S^DL)]:
    a Datalog closure on top of an existential chase. Evaluation is
    semi-naive — each round joins every rule body against the {e delta}
    of the previous round through the pivot stratification of
    {!Hom.iter_targets}, so no derivation is recomputed — with a mutable
    fact store inside a round and a persistent {!Instance} only at round
    boundaries. Used by the benchmarks as the optimized engine for
    Datalog closures; equivalence with {!Chase.run} is part of the test
    suite. *)

open Nca_logic

exception Not_datalog of Rule.t

type exhausted = {
  err : Nca_obs.Exhausted.t;  (** which resource ran out *)
  partial : Instance.t;
      (** the closure computed so far — a valid under-approximation (a
          prefix of the semi-naive iteration) *)
  rounds : int;  (** semi-naive rounds completed *)
}
(** Budget exhaustion is a value, not an exception: the seed's
    [Datalog.Budget] exception (which only one CLI path caught) is gone. *)

val seed_with : Atom.t -> Atom.t -> Subst.t option
(** [seed_with atom fact] unifies a body atom against a concrete fact:
    [Some sub] with [sub atom = fact], [None] when the predicates differ,
    the arities mismatch, or the atom's repeated variables / constants
    disagree with the fact. Total — malformed input yields [None], never
    an exception. *)

val saturate :
  ?max_rounds:int -> ?max_atoms:int -> ?budget:Nca_obs.Budget.t ->
  Instance.t -> Rule.t list -> (Instance.t, exhausted) result
(** Least fixpoint of the Datalog rules over the instance, or a typed
    exhaustion verdict with the partial closure. Raises {!Not_datalog} on
    a rule with existential variables. The legacy [max_rounds]/[max_atoms]
    arguments (defaults 10000 rounds, 1_000_000 atoms — Datalog closures
    are finite, so these are safety valves) intersect with [budget];
    deadline and cancellation are checked once per round. *)

val closure : Instance.t -> Rule.t list -> Instance.t
(** Unbudgeted least fixpoint — total, since Datalog closures are finite.
    The convenience entry point for callers that want the full closure
    and no budget story (tests, benchmarks, examples). *)

val rounds_to_fixpoint : Instance.t -> Rule.t list -> int
(** Number of semi-naive rounds until saturation (a recursion-depth
    measure); unbudgeted. *)
