(** Witness sets and the peak-removing argument (Section 5.1).

    Fix a regal rule set [R_⊠] with Datalog part [R^DL] and existential
    part [R^∃]. The analysis computes:
    - [Ch(R^∃)] — a DAG (Observation 35) with timestamps and provenance;
    - [Ch(Ch(R^∃), R^DL)] — where E-edges and tournaments live (Lemma 33);
    - [Q_⊠] — the injective rewriting of [E(x, y)] against [R_⊠];
    - for an edge [E(s,t)], the witness set
      [W(s,t) = {q ∈ Q_⊠ | Ch(R^∃) ⊨_inj q(s,t)}] (Definition 36);
    - the peak-removing iteration of Lemma 40, which converts any witness
      into a valley-query witness while strictly decreasing the
      [TSₘ]-multiset (asserted at each step). *)

open Nca_logic

type t = {
  rules : Rule.t list;
  datalog : Rule.t list;
  existential : Rule.t list;
  chase_ex : Nca_chase.Chase.t;  (** [Ch(R^∃)] from [{⊤}] *)
  full : Instance.t;  (** [Ch(Ch(R^∃), R^DL)] *)
  closure_stopped : Nca_obs.Exhausted.t option;
      (** the Datalog closure's exhaustion verdict; when [Some _], [full]
          is a sound under-approximation and absence of an edge in it is
          not evidence *)
  e : Symbol.t;
  rewriting : Ucq.t;  (** [Q_⊠], the injective rewriting of [E(x,y)] *)
  rewriting_complete : bool;
}

val analyze :
  ?depth:int ->
  ?max_rounds:int ->
  ?max_disjuncts:int ->
  ?budget:Nca_obs.Budget.t ->
  e:Symbol.t ->
  Rule.t list ->
  t
(** Build the Section-5 data for a (regal) rule set. [depth] bounds both
    chases (default 6); [budget] governs the existential chase, the
    Datalog closure and the injective rewriting alike. *)

val edges : t -> (Term.t * Term.t) list
(** The E-edges of the full chase. *)

val witnesses : t -> Term.t -> Term.t -> (Cq.t * Subst.t) list
(** [W(s, t)] together with one injective homomorphism per disjunct.
    Observation 37: non-empty for every edge, provided the rewriting is
    complete and the chase deep enough. *)

type removal_step = {
  query : Cq.t;
  hom : Subst.t;
  timestamp_multiset : Nca_graph.Multiset.Int_multiset.t;
  peak : Term.t option;  (** the maximal existential variable removed *)
}

type removal_outcome = {
  steps : removal_step list;  (** first = initial witness, last = final *)
  valley : (Cq.t * Subst.t) option;  (** the valley witness, when reached *)
}

val remove_peaks : t -> Term.t -> Term.t -> Cq.t * Subst.t -> removal_outcome
(** Run Lemma 40 from the given witness of [E(s, t)]. Every step asserts
    the strict [<_lex] decrease of the timestamp multiset; the iteration
    therefore terminates (Lemma 8). [valley = None] only when the witness
    search fails, which signals an incomplete rewriting or a truncated
    chase. *)

val valley_witness : t -> Term.t -> Term.t -> (Cq.t * Subst.t) option
(** Lemma 40 end-to-end: a valley query of [W(s, t)], found either
    directly or through peak removal. *)

val color_edges : t -> Term.t list -> ((Term.t * Term.t) * Cq.t) list option
(** Color every tournament edge by a valley query of its witness set, as in
    Proposition 41's Ramsey argument. [None] if some edge lacks one. *)

val monochromatic_subtournament :
  t -> Term.t list -> (Cq.t * Term.t list) option
(** Greedy extraction of the largest single-colored sub-tournament from the
    coloring of {!color_edges} (the role Ramsey's theorem plays in
    Proposition 41 — existence on large inputs, search here). *)
