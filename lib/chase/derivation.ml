open Nca_logic

type t = {
  term : Term.t;
  rule : Rule.t option;
  level : int;
  body_image : Atom.t list;
  premises : t list;
}

let rec of_term chase term =
  match Term.Map.find_opt term chase.Chase.provenance with
  | None ->
      {
        term;
        rule = None;
        level = Option.value ~default:0 (Chase.timestamp chase term);
        body_image = [];
        premises = [];
      }
  | Some prov ->
      let body_image =
        Subst.apply_atoms prov.Chase.hom (Rule.body prov.Chase.rule)
      in
      let invented_in_body =
        Term.Set.filter
          (fun t -> Term.Map.mem t chase.Chase.provenance)
          (Atom.terms_of_list body_image)
      in
      {
        term;
        rule = Some prov.Chase.rule;
        level = prov.Chase.level;
        body_image;
        premises =
          List.map (of_term chase) (Term.Set.elements invented_in_body);
      }

let rec depth d =
  match d.rule with
  | None -> 0
  | Some _ -> 1 + List.fold_left (fun acc p -> max acc (depth p)) 0 d.premises

let rules_used d =
  let rec collect acc d =
    let acc =
      match d.rule with
      | Some r when not (List.exists (Rule.equal r) acc) -> r :: acc
      | _ -> acc
    in
    List.fold_left collect acc d.premises
  in
  List.rev (collect [] d)

let rec pp ~rules ppf d =
  match d.rule with
  | None -> Fmt.pf ppf "%a (given, level %d)" Term.pp d.term d.level
  | Some r ->
      Fmt.pf ppf "@[<v 2>%a by %s at level %d from %a%a@]" Term.pp d.term
        (Rule.label rules r) d.level Atom.pp_list d.body_image
        (fun ppf premises ->
          List.iter (fun p -> Fmt.pf ppf "@,%a" (pp ~rules) p) premises)
        d.premises
