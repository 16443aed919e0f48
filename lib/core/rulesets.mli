(** A zoo of named rule sets and random generators.

    The zoo covers the rule sets the paper discusses (Example 1 and its
    bdd repair, the immediate-loop discussion of Property (△)) plus
    representatives of the classical UCQ-rewritable families the
    introduction cites (inclusion dependencies, linear, sticky-like,
    guarded-like) and stress inputs for each surgery (higher-arity
    predicates for reification, tangled heads for streamlining). Every
    entry fixes a canonical instance and the E-predicate its tournament
    experiments use. *)

open Nca_logic

type entry = {
  name : string;
  description : string;
  rules : Rule.t list;
  instance : Instance.t;
  e : Symbol.t;  (** the edge predicate for Tournaments/Loop queries *)
  bdd_expected : bool option;
      (** known classification; [None] when left to the engine *)
}

val e2 : Symbol.t
(** The binary predicate [E]. *)

val example1 : entry
(** Example 1: successor + transitivity. Not bdd; its chase grows
    arbitrarily large tournaments without a loop — and it is {e not} a
    counterexample to (bdd ⇒ fc) precisely because it is not bdd. *)

val example1_bdd : entry
(** The introduction's repair: transitivity replaced with the bdd rule
    [E(x,x') ∧ E(y,y') → E(x,y')]. The chase entails Tournaments_E and,
    as Theorem 1 demands, Loop_E. *)

val short_only : entry
val succ_only : entry
val dense : entry
val inclusion : entry
val person_knows : entry
val symmetric : entry
val fork : entry
val backward : entry
val tangle : entry
val ternary : entry
val all_pairs : entry
val guarded : entry
val sticky : entry

val ucq_defined : entry
(** Section 6's "Tournament Definition": the edge relation is defined by
    the binary UCQ [R(x,y) ∨ S(y,x)] through added Datalog rules. *)

val bidirectional : entry
val two_cycles : entry
val datalog_star : entry

val zoo : entry list
(** All named entries, in presentation order. *)

val find : string -> entry
(** Lookup by name. Raises [Not_found]. *)

val pp_entry : entry Fmt.t
(** The [nocliques zoo NAME] dump: a [#] comment line, the instance's
    facts, then the rules — a program {!Nca_logic.Parser} reads back to
    the same facts and rules. *)

val random_instance :
  seed:int -> constants:int -> atoms:int -> Symbol.Set.t -> Instance.t
(** Random instance over a signature: [atoms] random facts over
    [constants] named constants. Deterministic in [seed]. *)

val random_forward_existential_rules :
  seed:int -> rules:int -> Rule.t list
(** Random {e linear} rule sets (single-atom bodies) over the signature
    [{E/2, A/1, B/1}], forward-existential and predicate-unique. Linear
    theories are UCQ-rewritable (the paper's introduction, citing Calì,
    Gottlob, Kifer), so every generated set is bdd — the property tests
    cross-check this with the rewriting engine. Deterministic in
    [seed]. *)

val sample_instances : Symbol.Set.t -> Instance.t list
(** A small deterministic family of instances over a signature, used by
    empirical checkers (quickness, chase equivalences). *)
