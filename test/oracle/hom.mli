(** The interpreted homomorphism search: the reference engine the
    compiled {!Nca_logic.Hom} is differentially tested against, and the
    "before" side of the bench's [plan/hom] rows.

    A backtracking constraint solver with the same contract as
    {!Nca_logic.Hom}. It expands sub-goals fewest-candidates-first,
    re-picking at every search node, where candidate sets come from the
    target's positional index ({!candidates}): once any position of a
    body atom is bound, only the atoms agreeing with that binding are
    scanned. *)

open Nca_logic

val candidates : Atom.t -> Subst.t -> Instance.t -> Atom.t list
(** [candidates a sub i]: the atoms of [i] that can possibly match the
    pattern [a] under the partial binding [sub] — those agreeing with
    every position of [a] that [sub] (or a constant) already fixes, in
    ascending atom-id order. A superset of the true matches (repeated
    unbound variables are left to the matcher), never larger than
    {!Instance.with_pred}. *)

val candidate_count : Atom.t -> Subst.t -> Instance.t -> int
(** Cheap upper bound on [List.length (candidates a sub i)]: the smallest
    posting over the bound positions (no intersection is computed). *)

val iter :
  ?inj:bool ->
  ?init:Subst.t ->
  Atom.t list ->
  Instance.t ->
  (Subst.t -> unit) ->
  unit
(** [iter ~inj ~init src tgt f] calls [f] on every homomorphism from [src]
    to [tgt] extending [init]. Each reported substitution binds exactly the
    mappable terms of [src] (plus the bindings of [init]). *)

val iter_targets :
  ?init:Subst.t -> (Atom.t * Instance.t) list -> (Subst.t -> unit) -> unit
(** Like {!iter}, but each source atom matches into its own target
    instance. This is the primitive behind semi-naive (delta-driven)
    enumeration: stratifying the body of a rule over (old, delta, total)
    enumerates exactly the homomorphisms that use at least one delta
    atom, each exactly once. *)

val find : ?inj:bool -> ?init:Subst.t -> Atom.t list -> Instance.t -> Subst.t option
val exists : ?inj:bool -> ?init:Subst.t -> Atom.t list -> Instance.t -> bool
val all : ?inj:bool -> ?init:Subst.t -> Atom.t list -> Instance.t -> Subst.t list

val count : ?inj:bool -> ?init:Subst.t -> Atom.t list -> Instance.t -> int

val isomorphic : Instance.t -> Instance.t -> bool
(** Existence of a bijective homomorphism whose inverse is a homomorphism.
    On instances of equal cardinality an injective surjective atom-level
    embedding suffices. *)
