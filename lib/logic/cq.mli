(** Conjunctive queries.

    A CQ [q(x̄)] is a conjunction of atoms together with a tuple of answer
    variables; every other variable is implicitly existentially quantified
    (Section 2.1). The answer tuple may repeat variables (it is then a
    specialization of a more general tuple). *)

type t = private { answer : Term.t list; body : Atom.t list }

val make : answer:Term.t list -> Atom.t list -> t
(** Raises [Invalid_argument] when the body is empty, an answer term is not
    a variable, or an answer variable does not occur in the body. *)

val boolean : Atom.t list -> t
(** A Boolean CQ: no answer variables. *)

val answer : t -> Term.t list
val body : t -> Atom.t list

val vars : t -> Term.Set.t
val answer_vars : t -> Term.Set.t
val exist_vars : t -> Term.Set.t

val size : t -> int
(** Number of atoms. *)

val apply : Subst.t -> t -> t
(** Applies a substitution to both body and answer tuple. Answer variables
    must be mapped to variables. *)

val rename_apart : ?avoid:Term.Set.t -> t -> t
(** Fresh-rename every variable (answer variables included); the fresh
    variables avoid [avoid]. *)

val align : t -> Term.t list -> Subst.t option
(** [align q tuple] maps [q]'s answer tuple pointwise onto [tuple]: the
    substitution, or [None] when the lengths differ or a repeated answer
    variable would need two images. The map need not be injective. *)

val find : ?tuple:Term.t list -> inj:bool -> Instance.t -> t -> Subst.t option
(** A homomorphism (injective under [inj]) from the body to the instance
    extending [align q tuple]; without [tuple], any homomorphism. Under
    [inj] the whole map is injective (§2.1), answer variables included:
    two distinct answer variables never share a repeated tuple term. *)

val holds : ?tuple:Term.t list -> Instance.t -> t -> bool
(** [holds ~tuple i q] is [i ⊨ q(tuple)]: a homomorphism from the body to
    [i] mapping the answer tuple to [tuple]. Without [tuple], plain
    (Boolean-style) satisfaction. *)

val holds_inj : ?tuple:Term.t list -> Instance.t -> t -> bool
(** Injective entailment [⊨_inj]. *)

val answers : Instance.t -> t -> Term.t list list
(** All answer tuples over the instance. *)

val subsumes : t -> t -> bool
(** [subsumes q q'] holds when [q] is more general than [q']: there is a
    homomorphism from [q]'s body to [q']'s body mapping [q]'s answer tuple
    pointwise onto [q']'s. A subsumed disjunct is redundant in a UCQ. *)

val equivalent : t -> t -> bool

val loop_query : Symbol.t -> t
(** [Loop_E]: the Boolean query [∃x E(x, x)] (Definition 10). *)

val atom_query : Symbol.t -> t
(** The identity query [P(x̄)] with distinct answer variables [x̄] — the
    starting point of UCQ rewriting for a predicate. *)

val compare : t -> t -> int
val pp : t Fmt.t
