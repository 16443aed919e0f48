(** Instances: finite sets of atoms, indexed by predicate.

    An instance over a signature [S] is a set of atoms over predicates of
    [S] (Section 2.1). The index by predicate makes homomorphism search and
    trigger enumeration efficient. *)

type t

val empty : t

val top : t
(** The instance [{⊤}] used as the canonical start of the chase after the
    instance-encoding surgery (Section 4.1). *)

val add : Atom.t -> t -> t
val remove : Atom.t -> t -> t
val of_list : Atom.t list -> t

val atoms : t -> Atom.t list
(** Atoms in id order (fast, arbitrary). Use {!sorted_atoms} where the
    order reaches output. *)

val sorted_atoms : t -> Atom.t list
(** Atoms in {!Atom.compare_structural} order, for deterministic
    output. *)

val to_set : t -> Atom.Set.t

val mem : Atom.t -> t -> bool
val cardinal : t -> int
val is_empty : t -> bool

val union : t -> t -> t
val diff : t -> t -> t
val inter : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val fold : (Atom.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Atom.t -> unit) -> t -> unit
val filter : (Atom.t -> bool) -> t -> t
val for_all : (Atom.t -> bool) -> t -> bool
val exists : (Atom.t -> bool) -> t -> bool

val adom : t -> Term.Set.t
(** The active domain: all terms occurring in the instance. *)

val with_pred : Symbol.t -> t -> Atom.t list
(** All atoms over the given predicate. *)

val pred_cardinal : Symbol.t -> t -> int
(** Number of atoms over the given predicate,
    [= Array.length (pred_array p i)]: one index lookup, freezing
    nothing. *)

val posting : Symbol.t -> int -> Term.t -> t -> Atom.t array
(** [posting p pos t i]: the atoms of [i] over predicate [p] carrying term
    [t] at argument position [pos], as an array sorted by ascending
    {!Atom.id}. The array is frozen on first use and memoized on the
    instance value, so repeated probes (the compiled executor's hot path)
    cost one map lookup; callers must not mutate it. *)

val pred_array : Symbol.t -> t -> Atom.t array
(** All atoms over the given predicate as a frozen array sorted by
    ascending {!Atom.id}; memoized like {!posting}. Callers must not
    mutate it. *)

val pos_cardinal : Symbol.t -> int -> Term.t -> t -> int
(** [pos_cardinal p pos t i = Array.length (posting p pos t i)]: one
    index lookup, freezing nothing. *)

val signature : t -> Symbol.Set.t
val restrict : Symbol.Set.t -> t -> t
(** Keep only atoms whose predicate belongs to the given signature. *)

val map_terms : (Term.t -> Term.t) -> t -> t
val apply : Subst.t -> t -> t

val rename_apart : avoid:Term.Set.t -> t -> t * Subst.t
(** [rename_apart ~avoid i] renames every mappable term of [i] to a fresh
    variable, returning the renamed instance and the renaming used. The
    fresh variables are guaranteed to avoid [avoid], so the result shares
    no mappable term with it. *)

val critical : Symbol.Set.t -> t
(** The {e critical instance} of a signature: one constant [*] and every
    possible atom over it. Chase-termination and quickness phenomena on
    arbitrary instances are often already visible on the critical
    instance, which makes it a canonical stress sample. *)

val generalize : t -> t
(** Replace every constant by a variable named after it (consistently).
    The paper's development is constant-free: instance elements are
    variables, and the encoding surgery (Definition 12) renames even the
    database terms. Generalizing makes a chase over named constants
    comparable, up to homomorphism, with a chase grown from [{⊤}]. *)

val disjoint_union : t -> t -> t
(** The paper's [I₁ ∪̇ I₂]: union after renaming the mappable terms of the
    second instance away from the first. *)

val edges : Symbol.t -> t -> (Term.t * Term.t) list
(** Pairs [(s, t)] such that [P(s, t)] is in the instance, for binary [P]. *)

val pp : t Fmt.t
