(** Static chase-termination classification: the acyclicity hierarchy.

    The classifier runs the standard hierarchy of decidable sufficient
    conditions for termination of the semi-oblivious (Skolem) chase, in
    increasing generality:

    - {b Datalog}: no existential variables at all;
    - {b weak acyclicity} [Fagin et al.]: no cycle through a special
      edge of the position dependency graph ({!Nca_chase.Acyclicity});
    - {b joint acyclicity} [Krötzsch & Rudolph]: the dependency graph
      over existential {e variables} — [z → z'] when a null invented
      for [z] can reach every body position of a frontier variable of
      the rule of [z'] — is acyclic;
    - {b super-weak acyclicity} [Marnette]: the trigger graph over
      existential {e rules} (the same movement relation projected onto
      rules) is acyclic. Place unification is approximated by
      predicate–position equality, which only enlarges movement sets,
      so the implemented test is sound;
    - {b MFA} (model-faithful acyclicity, operational variant): the
      semi-oblivious chase of the {e critical instance}
      ({!Nca_logic.Instance.critical}) saturates within a
      {!Nca_obs.Budget.t}. Saturation on the critical instance proves
      termination on every instance; a {e cyclic term} (a null created
      by the same rule and existential variable as one of its
      ancestors) aborts the run early, since the classical MFA test
      fails exactly then.

    Each criterion implies the next (WA ⇒ JA ⇒ SWA ⇒ MFA). Every
    positive verdict carries a machine-checkable certificate, every
    negative one a concrete witness, and {!check} verifies either
    independently of the classifier — the same referee discipline as
    {!Nca_provenance.Proof}. *)

open Nca_logic

type criterion =
  | Datalog
  | Weak_acyclicity
  | Joint_acyclicity
  | Super_weak_acyclicity
  | Mfa

val criterion_name : criterion -> string
(** Short stable machine tag: ["datalog"], ["weak-acyclicity"], …. *)

val pp_criterion : criterion Fmt.t

(** {1 Certificates and witnesses} *)

type vertex = int * Term.t
(** A vertex of the joint-acyclicity graph: (rule index, existential
    variable). *)

type mfa_run = {
  mfa_depth : int;  (** depth at which the critical chase saturated *)
  mfa_atoms : int;  (** atoms of the saturated result *)
  mfa_proof : Nca_provenance.Proof.t option;
      (** derivation of a maximal-round fact of the chase, checkable by
          {!Nca_provenance.Proof.check} against the critical instance;
          [None] when the chase derived nothing (or fact-level
          provenance was already on for another engine run) *)
}

type certificate =
  | Datalog_cert  (** every rule is Datalog *)
  | Ranking of (Nca_chase.Acyclicity.position * int) list
      (** WA: a ranking [ρ] with [ρ(s) ≤ ρ(t)] on regular and
          [ρ(s) < ρ(t)] on special edges — such a ranking exists iff
          the rule set is weakly acyclic *)
  | Ja_order of vertex list
      (** topological order of the existential-variable graph *)
  | Swa_order of int list
      (** topological order of the trigger graph (existential rule
          indices) *)
  | Critical_chase of mfa_run
      (** the saturated critical-instance chase *)

type witness = {
  w_rule : int;  (** rule index *)
  w_var : Term.t;  (** a frontier variable of the rule *)
  w_hom : Subst.t;
      (** a homomorphism from the rule's body into body ∪ head sending
          [w_var] to an existential variable *)
}
(** A pumping witness. Composing [w_hom] with any firing of the rule
    yields a new semi-oblivious trigger whose frontier image contains
    the null just invented, so on the critical instance the rule fires
    infinitely often, inventing a fresh null each round: the
    semi-oblivious (and oblivious) chase provably diverges. *)

type verdict =
  | Terminating of criterion * certificate
  | Non_terminating of witness
  | Unknown of Nca_obs.Exhausted.t
      (** every static test failed and the budgeted critical chase ran
          out of the given resource before saturating *)

type t = {
  rules : Rule.t list;
  classes : Nca_surgery.Classes.t;  (** cheap syntactic classes *)
  jointly_acyclic : bool;
  ja_cycle : vertex list option;  (** a cycle when not jointly acyclic *)
  super_weakly_acyclic : bool;
  swa_cycle : int list option;  (** rule-index cycle when not SWA *)
  mfa : bool option;
      (** [Some true] critical chase saturated; [Some false] a cyclic
          term appeared (the classical MFA test fails); [None] budget
          exhausted before either *)
  cyclic_term : (int * Term.t) option;
      (** the (rule index, existential variable) whose nulls nest,
          when a cyclic term was detected *)
  verdict : verdict;
}

val classify :
  ?budget:Nca_obs.Budget.t -> Rule.t list -> t
(** Run the hierarchy cheapest-first and return the strongest verdict.
    [budget] bounds only the critical-instance chase (default: depth
    16, 10\,000 atoms); the static criteria are polynomial and always
    run. The emitted certificate or witness is already verified by
    {!check} — classification [assert]s it. *)

val classify_cached : Rule.t list -> t
(** {!classify} under the default budget, memoizing the last result —
    the lint passes all consult the classifier over the same rule set,
    and the critical-instance chase must run once, not once per
    pass. *)

val check : Rule.t list -> verdict -> (unit, string) result
(** Independent verification: recompute the relevant graph (or re-run
    the critical chase deterministically with the recorded bounds and
    replay the proof) and verify the certificate or witness against
    it, without trusting anything else recorded in {!t}. [Unknown] has
    nothing to verify and always passes. *)

(** {1 Graphs for rendering} *)

val ja_edges : Rule.t list -> (vertex * vertex) list
(** Edges of the existential-variable dependency graph, in
    deterministic (rule index, variable name) order. *)

val swa_edges : Rule.t list -> (int * int) list
(** Edges of the trigger graph over existential rule indices. *)

(** {1 Output} *)

val pp_vertex : Rule.t list -> vertex Fmt.t
(** Prints as [name#idx.z]. *)

val pp_certificate : Rule.t list -> certificate Fmt.t
val pp_witness : Rule.t list -> witness Fmt.t
val pp_verdict : Rule.t list -> verdict Fmt.t

val pp : t Fmt.t
(** The human report of [nocliques classify]. *)

val to_json : t -> Json.t
(** The ["nocliques/classify/v1"] document. *)
