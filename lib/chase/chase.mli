(** The (oblivious) chase, Section 2.2.

    [Ch_0(I,R) = I] and [Ch_{n+1}(I,R) = Ch_n(I,R) ∪ ⋃_{τ ∈ T_n} output(τ)]
    where [T_n] are the triggers over [Ch_n] that were not triggers over
    [Ch_{n-1}]. Every trigger fires exactly once (obliviously: even when
    its output is already entailed). The result records, per term, the
    {e timestamp} (Definition 34: the first level at which the term
    occurs) and, per invented null, the {e provenance} — the trigger that
    created it — which the peak-removing argument (Lemma 40) consumes. *)

open Nca_logic

type provenance = {
  rule : Rule.t;  (** the rule of the creating trigger *)
  hom : Subst.t;  (** its body homomorphism *)
  extension : Subst.t;  (** the extension mapping existential variables *)
  level : int;  (** the chase level at which the trigger fired *)
}

type t = {
  instance : Instance.t;  (** the union of all computed levels *)
  levels : Instance.t list;  (** [Ch_0; Ch_1; …; Ch_depth], cumulative *)
  depth : int;  (** number of levels computed *)
  saturated : bool;  (** no trigger was left to fire at the end *)
  stopped : Nca_obs.Exhausted.t option;
      (** the budget verdict when the run stopped before saturation: which
          resource (depth, atoms, wall clock, cancellation) ran out.
          [None] iff [saturated]. The computed prefix is always valid —
          identical to the corresponding prefix of an unbudgeted run. *)
  timestamps : int Term.Map.t;  (** Definition 34, for every term *)
  provenance : provenance Term.Map.t;  (** for every invented null *)
}

type variant =
  | Oblivious  (** every trigger fires exactly once (Section 2.2) *)
  | Semi_oblivious
      (** triggers agreeing on the rule and the frontier image are
          identified (the Skolem chase): body homomorphisms that differ
          only on non-frontier variables fire once. *)
  | Restricted
      (** a trigger is skipped when its head is already satisfiable by an
          extension of the frontier image — the standard chase. Sound and
          universal like the oblivious chase, but often much smaller; used
          as an ablation in the benchmarks. *)

val run :
  ?variant:variant -> ?max_depth:int -> ?max_atoms:int ->
  ?budget:Nca_obs.Budget.t -> Instance.t -> Rule.t list -> t
(** Run the chase level-synchronously until saturation, [max_depth] levels
    (default 8), more than [max_atoms] atoms (default 20000), or any bound
    of [budget] — the legacy arguments and the budget intersect to the
    tighter value, so a wall-clock or cancellation budget composes with
    the structural defaults. A stop before saturation is reported in
    {!t.stopped} as a typed verdict, never an exception.

    Governor checkpoints sit at round granularity: deadline/cancellation
    and the depth bound before each round, the atom bound after it.

    Evaluation is delta-driven (semi-naive): each round enumerates only
    the triggers that use an atom created in the previous round
    ({!Trigger.all_delta}) instead of re-running every rule body over the
    whole instance, which leaves the computed levels, timestamps and
    provenance identical to the naive level-by-level definition. *)

val level : t -> int -> Instance.t
(** [level c k] is [Ch_k]; clamped to the last computed level. *)

val timestamp : t -> Term.t -> int option
(** Definition 34; [None] for terms outside the chase (total — the seed's
    bare [Not_found] is gone). *)

val timestamp_multiset :
  t -> Term.Set.t -> Nca_graph.Multiset.Int_multiset.t
(** [TSₘ(T)]: the multiset of timestamps of a set of terms. Terms outside
    the chase contribute nothing. *)

val terms : t -> Term.Set.t
val invented : t -> Term.Set.t
(** The chase terms: [adom(Ch(I,R)) ∖ adom(I)]. *)

val entails : ?tuple:Term.t list -> t -> Cq.t -> bool
(** Entailment over the computed (finite) prefix of the chase. *)

val holds_at : t -> Cq.t -> int option
(** The first level at which the (Boolean) query holds, if any. *)

val e_graph : Symbol.t -> t -> Nca_graph.Digraph.Term_graph.t
(** The E-graph of the chase result. *)

val pp_stats : t Fmt.t
