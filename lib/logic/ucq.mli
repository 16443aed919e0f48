(** Unions of conjunctive queries.

    A UCQ [Q(x̄)] is a finite disjunction of CQs whose answer tuples are
    specializations of a common tuple [x̄] (Section 2.1). *)

type t = private { arity : int; disjuncts : Cq.t list }

val make : Cq.t list -> t
(** Raises [Invalid_argument] on an empty list or on disjuncts with
    different answer arities. *)

val of_cq : Cq.t -> t
val disjuncts : t -> Cq.t list
val arity : t -> int
val size : t -> int

val union : t -> t -> t

val holds : ?tuple:Term.t list -> Instance.t -> t -> bool
(** [i ⊨ Q(tuple)]: some disjunct holds. *)

val holds_inj : ?tuple:Term.t list -> Instance.t -> t -> bool
(** Some disjunct holds injectively. *)

val witness : ?tuple:Term.t list -> inj:bool -> Instance.t -> t -> (Cq.t * Subst.t) option
(** The first disjunct (with its homomorphism) that holds. *)

val cover : t -> t
(** Remove disjuncts subsumed by another disjunct (keeping the more general
    one); the result is equivalent as a query. This is the minimization
    underlying "the minimal rewriting is unique" [König et al.]. *)

val equivalent : t -> t -> bool
(** Equivalence as queries: mutual disjunct-wise subsumption. *)

val pp : t Fmt.t
