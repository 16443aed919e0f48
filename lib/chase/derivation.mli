(** Derivation traces: how the chase justified a term or an atom.

    The provenance recorded by {!Chase} is per invented null; this module
    lifts it to readable derivation trees: the trigger that created a
    null, recursively explained through the terms its body homomorphism
    used. This is the data one reads off when following the
    peak-removing argument by hand, and the CLI's [--explain] output. *)

open Nca_logic

type t = {
  term : Term.t;
  rule : Rule.t option;  (** [None] for database terms *)
  level : int;
  body_image : Atom.t list;  (** the instantiated body of the trigger *)
  premises : t list;  (** derivations of the invented terms in the body *)
}

val of_term : Chase.t -> Term.t -> t
(** Raises [Not_found] for terms outside the chase. *)

val depth : t -> int
(** Length of the longest chain of rule applications in the trace. *)

val rules_used : t -> Rule.t list
(** Rules along the trace, deduplicated (by rule, not by label), in
    first-use order. *)

val pp : rules:Rule.t list -> t Fmt.t
(** An indented tree; each step names its rule by
    [Rule.label rules]. *)
