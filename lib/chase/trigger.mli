(** Triggers: a rule together with a homomorphism from its body.

    An [R]-trigger over an instance [I] is a pair [⟨ρ, h⟩] of a rule
    [ρ ∈ R] and a homomorphism [h] from [body(ρ)] to [I] (Section 2.2). *)

open Nca_logic

type t = { rule : Rule.t; hom : Subst.t }

(** Structural trigger identity: the rule ({!Rule.equal}-equal rules
    share an identity, so rules that merely share a name do not) together
    with the ordered images of a variable set. Hashable — the chase
    stores fired triggers in a [Hashtbl.Make (Trigger.Key)]. Hashing uses
    the rule's precomputed hash; equality short-cuts on a physically
    equal rule. *)
module Key : sig
  type t = { rule : Rule.t; bindings : Term.t list }

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : t Fmt.t
end

val all : Rule.t list -> Instance.t -> t list
(** [triggers(I, R)]: every trigger of every rule over the instance. Each
    reported homomorphism binds exactly the body variables. *)

val all_delta : Rule.t list -> total:Instance.t -> delta:Instance.t -> t list
(** The triggers over [total] whose homomorphism uses at least one atom
    of [delta] (which must be a subset of [total]) — the per-round work
    of a semi-naive chase. Each such trigger is enumerated exactly once:
    the classic pivot decomposition stratifies the rule body over
    [(total ∖ delta, delta, total)]. With [delta = total] this is exactly
    {!all}, and [all total = all_delta ~total ~delta ∪ all (total ∖ delta)]
    disjointly — property-tested in the suite. *)

val iter_delta :
  Rule.t list -> total:Instance.t -> delta:Instance.t -> (t -> unit) -> unit
(** {!all_delta} as a stream: calls [f] on each trigger, in the order of
    {!all_delta}'s list, as it is enumerated. Enumeration reads only
    [total], [delta] and [total ∖ delta] (taken once, before the first
    call), so [f] may build new instances from [total] meanwhile. *)

val delta_tasks :
  Rule.t list ->
  total:Instance.t ->
  delta:Instance.t ->
  (Rule.t * (Atom.t * Instance.t) list) list
(** The pivot decomposition behind {!all_delta}: one [(rule, goals)]
    unit per (rule, pivot) pair, each body atom paired with the instance
    it ranges over — for {!Nca_plan.Exec.iter_targets}. *)

val output : t -> Instance.t * Subst.t
(** The output of the trigger: [h'(head ρ)] where [h'] extends [h] by
    mapping each existential variable to a globally fresh null. Also
    returns [h'] (the extension), whose restriction to the existential
    variables identifies the created nulls. *)

val key : t -> Key.t
(** A canonical identity for the trigger (the rule + the ordered
    bindings of all body variables), used to fire each trigger exactly
    once across chase levels, as the oblivious chase requires. *)

val frontier_key : t -> Key.t
(** Semi-oblivious (Skolem) identity: the rule + the ordered bindings of
    the frontier variables only. *)

val frontier_image : t -> Term.Set.t
(** The image of the rule's frontier under the trigger's homomorphism —
    the frontier of the chase terms the trigger creates (Section 2.2). *)

val pp : t Fmt.t
