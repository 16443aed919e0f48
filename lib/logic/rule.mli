(** Existential rules.

    A rule [∀x̄,ȳ B(x̄, ȳ) → ∃z̄ H(ȳ, z̄)] with non-empty body and head
    (Section 2.1). The frontier [ȳ] is the set of variables shared by body
    and head; head variables outside the body are existential. *)

type t
(** A rule also carries its variable sets and lists, computed once by
    {!make}: the chase reads them per trigger. *)

val make : ?name:string -> Atom.t list -> Atom.t list -> t
(** [make body head] builds a rule. Raises [Invalid_argument] when body or head is empty, or when a
    non-variable mappable term occurs. *)

val name : t -> string
val body : t -> Atom.t list
val head : t -> Atom.t list

val body_vars : t -> Term.Set.t
val head_vars : t -> Term.Set.t

val frontier : t -> Term.Set.t
(** Variables occurring in both body and head. *)

val exist_vars : t -> Term.Set.t
(** Head variables that are not in the body. *)

val body_var_list : t -> Term.t list
(** [Term.Set.elements (body_vars r)]. *)

val frontier_list : t -> Term.t list
(** [Term.Set.elements (frontier r)]. *)

val exist_vars_by_name : t -> Term.t list
(** [Term.sorted_elements (exist_vars r)]: the existential variables in
    name order, the order in which a trigger numbers its nulls. *)

val is_datalog : t -> bool
(** No existential variables (Section 2.1). *)

val rename_apart : t -> t
(** Fresh-rename all variables of the rule. *)

val rename : ?name:string -> t -> t
(** Like {!rename_apart} but also allows renaming the rule itself. *)

val signature : t list -> Symbol.Set.t
(** All predicates occurring in a rule set. *)

val split_datalog : t list -> t list * t list
(** [(datalog, existential)] partition of a rule set — the paper's
    [S^DL] and [S^∃] (Section 4.4.1). *)

val compare : t -> t -> int
(** By name, then body, then head. *)

val equal : t -> t -> bool

val label : t list -> t -> string
(** [label rules r] names [r] in derivations and proofs: its name, or
    [name#k] when another rule of [rules] shares the name (lint NCA019),
    with [k] the 1-based position of [r] in [rules]. *)

val hash : t -> int
(** Equal on {!equal} rules; precomputed. *)

val pp : t Fmt.t
val pp_set : t list Fmt.t
