open Nca_logic

type t = { rule : Rule.t; hom : Subst.t }

module Key = struct
  (* Rules compare with [Rule.equal], so two rules that only share a name
     stay apart. The chase hands every trigger of a rule the same physical
     rule, so equality usually stops at [==]. *)
  type t = { rule : Rule.t; bindings : Term.t list }

  let equal a b =
    (a.rule == b.rule || Rule.equal a.rule b.rule)
    && List.equal Term.equal a.bindings b.bindings

  let compare a b =
    match Rule.compare a.rule b.rule with
    | 0 -> List.compare Term.compare a.bindings b.bindings
    | c -> c

  (* [Hashtbl.hash] stops after a few nodes, which collides badly on long
     binding lists differing only in their tail; fold the whole list. *)
  let hash k =
    List.fold_left (fun h t -> (h * 31) + Term.hash t) (Rule.hash k.rule)
      k.bindings

  let pp ppf k =
    Fmt.pf ppf "%s|%a" (Rule.name k.rule)
      Fmt.(list ~sep:(any "|") Term.pp)
      k.bindings
end

let make_key rule vars hom =
  { Key.rule; bindings = List.map (Subst.apply hom) vars }

let key tr = make_key tr.rule (Rule.body_var_list tr.rule) tr.hom
let frontier_key tr = make_key tr.rule (Rule.frontier_list tr.rule) tr.hom

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

let iter_delta rules ~total ~delta f =
  List.iter
    (fun (rule, goals) ->
      Nca_plan.Exec.iter_targets goals (fun hom -> f { rule; hom }))
    (delta_tasks rules ~total ~delta)

let all_delta rules ~total ~delta =
  let acc = ref [] in
  iter_delta rules ~total ~delta (fun tr -> acc := tr :: !acc);
  List.rev !acc

let output tr =
  let ext =
    (* name order: null numbering is assigned deterministically *)
    List.fold_left
      (fun acc z -> Subst.add z (Term.fresh_null ()) acc)
      tr.hom
      (Rule.exist_vars_by_name tr.rule)
  in
  (Instance.of_list (Subst.apply_atoms ext (Rule.head tr.rule)), ext)

let frontier_image tr =
  Term.Set.map (Subst.apply tr.hom) (Rule.frontier tr.rule)

let pp ppf tr =
  Fmt.pf ppf "⟨%s, %a⟩" (Rule.name tr.rule) Subst.pp tr.hom
