type t = {
  name : string;
  body : Atom.t list;
  head : Atom.t list;
  (* derived from the three fields above, once per rule *)
  hash : int;  (* agrees on [compare]-equal rules *)
  body_vars : Term.Set.t;
  head_vars : Term.Set.t;
  frontier : Term.Set.t;
  exist_vars : Term.Set.t;
  body_var_list : Term.t list;
  frontier_list : Term.t list;
  exist_vars_by_name : Term.t list;
}

let build name body head =
  let body_vars = Atom.vars_of_list body in
  let head_vars = Atom.vars_of_list head in
  let frontier = Term.Set.inter body_vars head_vars in
  let exist_vars = Term.Set.diff head_vars body_vars in
  {
    name;
    body;
    head;
    hash =
      List.fold_left
        (fun h a -> (h * 31) + Atom.id a)
        (Hashtbl.hash name) (body @ head);
    body_vars;
    head_vars;
    frontier;
    exist_vars;
    body_var_list = Term.Set.elements body_vars;
    frontier_list = Term.Set.elements frontier;
    exist_vars_by_name = Term.sorted_elements exist_vars;
  }

let counter = ref 0

let make ?name body head =
  if body = [] then invalid_arg "Rule.make: empty body";
  if head = [] then invalid_arg "Rule.make: empty head";
  let check atoms =
    List.iter
      (fun a ->
        List.iter
          (fun t ->
            if Term.is_null t then
              invalid_arg
                (Fmt.str "Rule.make: null %a in rule" Term.pp t))
          (Atom.args a))
      atoms
  in
  check body;
  check head;
  let name =
    match name with
    | Some n -> n
    | None ->
        incr counter;
        Fmt.str "r%d" !counter
  in
  build name body head

let name r = r.name
let body r = r.body
let head r = r.head
let hash r = r.hash
let body_vars r = r.body_vars
let head_vars r = r.head_vars
let frontier r = r.frontier
let exist_vars r = r.exist_vars
let body_var_list r = r.body_var_list
let frontier_list r = r.frontier_list
let exist_vars_by_name r = r.exist_vars_by_name
let is_datalog r = Term.Set.is_empty r.exist_vars

let rename ?name r =
  let renaming =
    (* name order: fresh names are assigned in a deterministic order,
       independent of intern-id order *)
    List.fold_left
      (fun acc x -> Subst.add x (Term.fresh_var ()) acc)
      Subst.empty
      (Term.sorted_elements (Term.Set.union r.body_vars r.head_vars))
  in
  build
    (Option.value name ~default:r.name)
    (Subst.apply_atoms renaming r.body)
    (Subst.apply_atoms renaming r.head)

let rename_apart r = rename r

let signature rules =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc a -> Symbol.Set.add (Atom.pred a) acc)
        acc (r.body @ r.head))
    Symbol.Set.empty rules

let split_datalog rules = List.partition is_datalog rules

let compare r r' =
  match String.compare r.name r'.name with
  | 0 -> (
      match List.compare Atom.compare r.body r'.body with
      | 0 -> List.compare Atom.compare r.head r'.head
      | c -> c)
  | c -> c

let equal r r' = compare r r' = 0

let label rules r =
  let shared =
    List.length (List.filter (fun r' -> String.equal r'.name r.name) rules) > 1
  in
  let rec position k = function
    | [] -> r.name
    | r' :: _ when equal r r' -> Fmt.str "%s#%d" r.name k
    | _ :: rest -> position (k + 1) rest
  in
  if shared then position 1 rules else r.name

let pp ppf r =
  if is_datalog r then
    Fmt.pf ppf "@[<hov 2>%s: %a ->@ %a@]" r.name Atom.pp_list r.body
      Atom.pp_list r.head
  else
    Fmt.pf ppf "@[<hov 2>%s: %a ->@ ∃%a. %a@]" r.name Atom.pp_list r.body
      Fmt.(list ~sep:comma Term.pp)
      r.exist_vars_by_name Atom.pp_list r.head

let pp_set ppf rules = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp) rules
