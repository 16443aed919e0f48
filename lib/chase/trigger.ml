open Nca_logic

type t = { rule : Rule.t; hom : Subst.t }

module Key = struct
  (* [rule] is the interned name id, [bindings] compare by int code:
     key equality, comparison and hashing never touch a string. *)
  type t = { rule : int; bindings : Term.t list }

  let equal a b =
    Int.equal a.rule b.rule && List.equal Term.equal a.bindings b.bindings

  let compare a b =
    match Int.compare a.rule b.rule with
    | 0 -> List.compare Term.compare a.bindings b.bindings
    | c -> c

  (* [Hashtbl.hash] stops after a few nodes, which collides badly on long
     binding lists differing only in their tail; fold the whole list. *)
  let hash k =
    List.fold_left (fun h t -> (h * 31) + Term.hash t) k.rule k.bindings

  let pp ppf k =
    Fmt.pf ppf "%s|%a" (Names.name k.rule)
      Fmt.(list ~sep:(any "|") Term.pp)
      k.bindings
end

let make_key rule vars hom =
  {
    Key.rule = Names.intern (Rule.name rule);
    bindings = List.map (Subst.apply hom) (Term.Set.elements vars);
  }

let key tr = make_key tr.rule (Rule.body_vars tr.rule) tr.hom
let frontier_key tr = make_key tr.rule (Rule.frontier tr.rule) tr.hom

let all rules i =
  List.concat_map
    (fun rule ->
      List.map (fun hom -> { rule; hom }) (Nca_plan.Exec.all (Rule.body rule) i))
    rules

(* Semi-naive enumeration: a homomorphism into [total] uses a delta atom
   iff some body position maps into [delta]; pinning the {e first} such
   position [p] — positions before [p] map into [total ∖ delta], position
   [p] into [delta], positions after [p] anywhere in [total] — partitions
   the delta-using homomorphisms, so each is produced exactly once. *)
let delta_tasks rules ~total ~delta =
  let old = Instance.diff total delta in
  List.concat_map
    (fun rule ->
      let body = Rule.body rule in
      List.mapi
        (fun pivot _ ->
          ( rule,
            List.mapi
              (fun j a ->
                ( a,
                  if j < pivot then old
                  else if j = pivot then delta
                  else total ))
              body ))
        body)
    rules

let all_delta rules ~total ~delta =
  let acc = ref [] in
  List.iter
    (fun (rule, goals) ->
      Nca_plan.Exec.iter_targets goals (fun hom ->
          acc := { rule; hom } :: !acc))
    (delta_tasks rules ~total ~delta);
  List.rev !acc

let output tr =
  let ext =
    (* name order: null numbering is assigned deterministically *)
    List.fold_left
      (fun acc z -> Subst.add z (Term.fresh_null ()) acc)
      tr.hom
      (Term.sorted_elements (Rule.exist_vars tr.rule))
  in
  (Instance.of_list (Subst.apply_atoms ext (Rule.head tr.rule)), ext)

let frontier_image tr =
  Term.Set.map (Subst.apply tr.hom) (Rule.frontier tr.rule)

let pp ppf tr =
  Fmt.pf ppf "⟨%s, %a⟩" (Rule.name tr.rule) Subst.pp tr.hom
