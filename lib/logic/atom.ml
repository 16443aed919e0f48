type t = { id : int; hash : int; pred : Symbol.t; args : Term.t list }

(* Atoms are hash-consed: [make] returns the unique (physically shared)
   atom for a given predicate and argument tuple, keyed on the int codes
   of its parts. Equality is physical, comparison is on the dense id,
   and the hash is precomputed at construction. Ids are dense, never
   recycled, and allocation-ordered. *)
let table : (int list, t) Hashtbl.t = Hashtbl.create 4096
let next = ref 0

let make pred args =
  if List.length args <> Symbol.arity pred then
    invalid_arg
      (Fmt.str "Atom.make: %a applied to %d arguments" Symbol.pp pred
         (List.length args));
  let key = Symbol.id pred :: List.map Term.code args in
  let hash = List.fold_left (fun h c -> (h * 31) + c) 17 key in
  match Hashtbl.find_opt table key with
  | Some a -> a
  | None ->
      let a = { id = !next; hash; pred; args } in
      incr next;
      Hashtbl.add table key a;
      a

(* (entries, max bucket depth): the collision picture behind
   [nocliques debug intern-stats]. *)
let shard_stats () =
  let st = Hashtbl.stats table in
  [ (st.Hashtbl.num_bindings, st.Hashtbl.max_bucket_length) ]

let app name args = make (Symbol.make name (List.length args)) args
let top = make Symbol.top []
let pred a = a.pred
let args a = a.args
let arity a = Symbol.arity a.pred
let id a = a.id
let count () = !next

let terms a =
  List.fold_left (fun acc t -> Term.Set.add t acc) Term.Set.empty a.args

let vars a =
  List.fold_left
    (fun acc t -> if Term.is_mappable t then Term.Set.add t acc else acc)
    Term.Set.empty a.args

let map f a = make a.pred (List.map f a.args)
let is_binary a = arity a = 2

let as_edge a =
  match a.args with [ s; t ] -> Some (s, t) | _ -> None

let compare a b = Int.compare a.id b.id
let equal a b = a == b
let hash a = a.hash

let compare_structural a b =
  match Symbol.compare_names a.pred b.pred with
  | 0 -> List.compare Term.compare_names a.args b.args
  | c -> c

let pp ppf a =
  if Symbol.arity a.pred = 0 then Symbol.pp_name ppf a.pred
  else
    Fmt.pf ppf "@[<h>%a(%a)@]" Symbol.pp_name a.pred
      Fmt.(list ~sep:(any ",") Term.pp)
      a.args

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

let sorted_elements s = List.sort compare_structural (Set.elements s)

let terms_of_list atoms =
  List.fold_left (fun acc a -> Term.Set.union acc (terms a)) Term.Set.empty
    atoms

let vars_of_list atoms =
  List.fold_left (fun acc a -> Term.Set.union acc (vars a)) Term.Set.empty
    atoms

let pp_list ppf atoms = Fmt.(list ~sep:comma pp) ppf atoms
