type t = { answer : Term.t list; body : Atom.t list }

let make ~answer body =
  if body = [] then invalid_arg "Cq.make: empty body";
  let body_vars = Atom.vars_of_list body in
  List.iter
    (fun x ->
      if not (Term.is_var x) then
        invalid_arg (Fmt.str "Cq.make: non-variable answer %a" Term.pp x);
      if not (Term.Set.mem x body_vars) then
        invalid_arg (Fmt.str "Cq.make: unsafe answer variable %a" Term.pp x))
    answer;
  { answer; body }

let boolean body = make ~answer:[] body
let answer q = q.answer
let body q = q.body
let vars q = Atom.vars_of_list q.body

let answer_vars q =
  List.fold_left (fun acc x -> Term.Set.add x acc) Term.Set.empty q.answer

let exist_vars q = Term.Set.diff (vars q) (answer_vars q)
let size q = List.length q.body

let apply s q =
  make ~answer:(List.map (Subst.apply s) q.answer)
    (Subst.apply_atoms s q.body)

let rename_apart ?(avoid = Term.Set.empty) q =
  let rec fresh_avoiding () =
    let v = Term.fresh_var () in
    if Term.Set.mem v avoid then fresh_avoiding () else v
  in
  let renaming =
    (* name order: fresh names are assigned deterministically *)
    List.fold_left
      (fun acc x -> Subst.add x (fresh_avoiding ()) acc)
      Subst.empty
      (Term.sorted_elements (vars q))
  in
  apply renaming q

let align q tuple =
  let rec go s xs ts =
    match (xs, ts) with
    | [], [] -> Some s
    | x :: xs, t :: ts -> (
        match Subst.find_opt x s with
        | Some u -> if Term.equal u t then go s xs ts else None
        | None -> go (Subst.add x t s) xs ts)
    | _ -> None
  in
  go Subst.empty q.answer tuple

let find ?tuple ~inj i q =
  let init = Option.fold ~none:(Some Subst.empty) ~some:(align q) tuple in
  Option.bind init (fun init -> Hom.find ~inj ~init q.body i)

let holds ?tuple i q = Option.is_some (find ?tuple ~inj:false i q)
let holds_inj ?tuple i q = Option.is_some (find ?tuple ~inj:true i q)

let answers i q =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  Hom.iter q.body i (fun s ->
      let tuple = List.map (Subst.apply s) q.answer in
      if not (Hashtbl.mem seen tuple) then begin
        Hashtbl.add seen tuple ();
        acc := tuple :: !acc
      end);
  List.rev !acc

let subsumes q q' =
  match align q q'.answer with
  | None -> false
  | Some init -> Hom.exists ~init q.body (Instance.of_list q'.body)

let equivalent q q' = subsumes q q' && subsumes q' q

let loop_query e =
  let x = Term.var "x" in
  boolean [ Atom.make e [ x; x ] ]

let atom_query p =
  let xs = List.init (Symbol.arity p) (fun i -> Term.var (Fmt.str "x%d" i)) in
  make ~answer:xs [ Atom.make p xs ]

let compare q q' =
  match List.compare Term.compare q.answer q'.answer with
  | 0 -> List.compare Atom.compare q.body q'.body
  | c -> c

let pp ppf q =
  Fmt.pf ppf "@[<h>?(%a) :- %a@]"
    Fmt.(list ~sep:(any ", ") Term.pp)
    q.answer
    Fmt.(list ~sep:(any ", ") Atom.pp)
    q.body
