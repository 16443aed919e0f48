(** Homomorphism search.

    A homomorphism from a set of atoms [A] to an instance [B] is a
    substitution [π] with [π(A) ⊆ B] (Section 2.1). Constants are rigid;
    variables and nulls may be mapped. When [inj] is set, the
    homomorphism is additionally required to be injective on the mappable
    terms of the source (the paper's [⊨_inj], Section 2.1).

    The search runs the body's compiled {!Plan} (memoised by {!Cache}, so
    each body is compiled once per process) as a register machine over
    the target's sorted posting arrays. The root goal is chosen at call
    time, fewest candidates first; a root with no candidate ends the call
    at once. Candidates are merged in ascending atom-id order by leapfrog
    intersection of the postings of every fixed position. *)

val iter :
  ?inj:bool ->
  ?init:Subst.t ->
  Atom.t list ->
  Instance.t ->
  (Subst.t -> unit) ->
  unit
(** [iter ~inj ~init src tgt f] calls [f] on every homomorphism from [src]
    to [tgt] extending [init]. Each reported substitution binds exactly the
    mappable terms of [src] (plus the bindings of [init]). Under [inj] the
    images of [init] count as used. *)

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
