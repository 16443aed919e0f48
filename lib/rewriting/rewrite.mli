(** UCQ rewriting to fixpoint (Definition 2 / Proposition 4).

    Iterates {!Piece.rewrite_step_all} from the initial query, keeping a
    subsumption-minimal cover of everything generated. If the iteration
    reaches a fixpoint, the result is a sound and complete UCQ rewriting
    and the rule set is bdd {e for this query}; the number of rounds is an
    upper bound on the bdd-constant [bdd(q, R)] (Definition 3). *)

open Nca_logic

type outcome = {
  ucq : Ucq.t;  (** the rewriting computed so far, cover-minimized *)
  rounds : int;  (** rewriting rounds executed *)
  complete : bool;  (** a fixpoint was reached within budget *)
  stopped : Nca_obs.Exhausted.t option;
      (** which resource cut the iteration short; [None] iff [complete] *)
  generated : int;  (** total CQs generated before minimization *)
}

val rewrite :
  ?max_rounds:int -> ?max_disjuncts:int -> ?minimize:bool ->
  ?budget:Nca_obs.Budget.t -> Rule.t list -> Cq.t -> outcome
(** [rewrite rules q] computes [rew(q, rules)]. Defaults: 12 rounds, 2000
    disjuncts; both intersect with [budget], whose deadline/cancellation
    and step bound (counting generated CQs) are checked once per round.
    [complete = false] means a resource ran out ([stopped] says which) —
    the rule set may not be bdd for [q], or is bdd with a larger constant.
    [minimize] (default true) prunes subsumed disjuncts each round; with
    [minimize:false] only isomorphic duplicates are dropped — the
    ablation mode measuring what the cover buys. *)

val rewrite_ucq :
  ?max_rounds:int -> ?max_disjuncts:int -> ?minimize:bool ->
  ?budget:Nca_obs.Budget.t -> Rule.t list -> Ucq.t -> outcome
(** Rewriting lifted to UCQs (used to compose rewritings, Lemma 5). *)
