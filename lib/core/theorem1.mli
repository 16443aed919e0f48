(** The Theorem 1 empirical validator.

    Theorem 1: for every bdd rule set [R] and instance [I],
    [(I, R) ⊨ Tournaments_E ⟹ (I, R) ⊨ Loop_E]. The validator chases the
    input to a depth budget, measures the largest E-tournament
    (Definition 9) and the first level entailing [Loop_E]
    (Definition 10), and checks the implication at a finite threshold:
    a bdd rule set whose chase prefix already contains a tournament of
    the given size must entail the loop. *)

open Nca_logic

type verdict = {
  depth : int;  (** chase levels actually computed *)
  saturated : bool;
  stopped : Nca_obs.Exhausted.t option;
      (** why the chase stopped before saturation (the seed's [truncated]
          flag, now carrying the resource); [None] iff [saturated] *)
  atoms : int;
  max_tournament : int;
  tournament : Term.t list;  (** a maximum tournament *)
  loop : bool;
  loop_level : int option;  (** first chase level entailing [Loop_E] *)
}

val validate :
  ?max_depth:int -> ?max_atoms:int -> ?budget:Nca_obs.Budget.t ->
  e:Symbol.t -> Instance.t -> Rule.t list -> verdict

val validate_full :
  ?max_depth:int -> ?max_atoms:int -> ?budget:Nca_obs.Budget.t ->
  e:Symbol.t -> Instance.t -> Rule.t list -> verdict * Nca_chase.Chase.t
(** {!validate}, also returning the underlying chase — the certificate
    builders ({!Certificate.of_verdict}) need it to read off edge facts
    and the loop witness. *)

val implication_holds : threshold:int -> verdict -> bool
(** [max_tournament ≥ threshold → loop]: the finite shadow of
    Theorem 1's implication. Vacuously true below the threshold. *)

val tournament_size_bound : rewriting_disjuncts:int -> int
(** The paper's extractable bound on loop-free tournament size
    (Question 46): the Ramsey bound [R(4, …, 4)] with one argument per
    disjunct of [Q_⊠]. *)

type point = {
  level : int;
  level_atoms : int;
  level_tournament : int;
  level_loop : bool;
}

val series :
  ?max_depth:int -> ?max_atoms:int -> ?budget:Nca_obs.Budget.t ->
  e:Symbol.t -> Instance.t -> Rule.t list -> point list
(** Per-level evolution of the chase: atoms, max tournament, loop — the
    data behind the growth figures. *)

val pp_verdict : verdict Fmt.t
