(** Atoms: a predicate applied to a tuple of terms.

    Atoms are hash-consed: building the same predicate/argument tuple
    twice returns the same (physically equal) value, so [equal] is
    pointer equality, [compare] orders dense ids, and [hash] is
    precomputed — all O(1) regardless of arity. *)

type t

val make : Symbol.t -> Term.t list -> t
(** [make p args] builds (or retrieves) [p(args)]. Raises
    [Invalid_argument] when [List.length args <> Symbol.arity p]. *)

val app : string -> Term.t list -> t
(** [app name args] is [make (Symbol.make name (List.length args)) args]:
    a convenience constructor that infers the arity. *)

val top : t
(** The nullary fact [⊤]. *)

val pred : t -> Symbol.t
val args : t -> Term.t list
val arity : t -> int

val id : t -> int
(** The dense hash-cons id ([0 .. count () - 1]). *)

val count : unit -> int
(** Number of distinct atoms hash-consed so far. *)

val shard_stats : unit -> (int * int) list
(** [[(entries, max_bucket_depth)]] of the hash-cons table — a single
    entry (the list shape is kept for existing callers), behind
    [nocliques debug intern-stats]. *)

val terms : t -> Term.Set.t
val vars : t -> Term.Set.t
(** Mappable terms (variables and nulls) occurring in the atom. *)

val map : (Term.t -> Term.t) -> t -> t

val is_binary : t -> bool
val as_edge : t -> (Term.t * Term.t) option
(** [as_edge a] is [Some (s, t)] when [a = P(s, t)] for a binary [P]. *)

val compare : t -> t -> int
(** Total order on hash-cons ids — O(1), but unrelated to the printed
    form. Use {!compare_structural} where output byte-stability
    matters. *)

val equal : t -> t -> bool
val hash : t -> int

val compare_structural : t -> t -> int
(** The historical structural order: predicate by name/arity, then
    arguments by {!Term.compare_names}. *)

val pp : t Fmt.t

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val sorted_elements : Set.t -> t list
(** Elements in {!compare_structural} order, for deterministic output. *)

val terms_of_list : t list -> Term.Set.t
val vars_of_list : t list -> Term.Set.t
val pp_list : t list Fmt.t
