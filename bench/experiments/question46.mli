(** The Question 46 audit: loop-free tournament sizes vs the paper's bound.

    Question 46 asks for the maximal tournament size a UCQ-rewritable rule
    set can define without entailing [Loop_E]. The paper extracts the
    upper bound [N(4, …, 4)] with one argument per disjunct of [Q_⊠] —
    the injective rewriting of [E] against the regalized rule set. This
    module measures both sides on concrete rule sets: the largest
    tournament actually found in a chase prefix, and the Ramsey bound
    derived from the rewriting the pipeline computes. *)

type audit = {
  name : string;
  bdd : bool;  (** engine certificate on the atomic queries *)
  loop : bool;  (** loop in the chase prefix *)
  max_tournament : int;  (** largest tournament found (depth budget) *)
  rewriting_disjuncts : int;  (** [|Q_⊠|] for the regalized set *)
  bound : int;  (** [R(4, …, 4)] with that many colors (capped) *)
  within_bound : bool;  (** loop-free ⟹ tournament ≤ bound *)
}

val audit :
  ?depth:int -> ?max_rounds:int -> Nca_core.Rulesets.entry -> audit
(** Regalize, rewrite, chase, measure. The Ramsey bound is astronomically
    large for more than a few disjuncts; it is capped at [max_int / 2]
    and [within_bound] is then trivially true — which is precisely the
    point: the interesting observations are the measured tournament
    sizes, tiny against the bound. *)

val pp : audit Fmt.t
