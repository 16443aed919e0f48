type t = { id : int; name : int; arity : int }

(* Symbols are interned: one record per (name, arity) pair, identified
   by a dense id. [equal]/[compare]/[hash] are single int operations. *)
let table : (int * int, t) Hashtbl.t = Hashtbl.create 256
let next = ref 0

let make name arity =
  if arity < 0 then invalid_arg "Symbol.make: negative arity";
  if String.equal name "" then invalid_arg "Symbol.make: empty name";
  let nid = Names.intern name in
  match Hashtbl.find_opt table (nid, arity) with
  | Some s -> s
  | None ->
      let s = { id = !next; name = nid; arity } in
      incr next;
      Hashtbl.add table (nid, arity) s;
      s

let name s = Names.name s.name
let name_id s = s.name
let id s = s.id
let arity s = s.arity
let count () = !next
let top = make "TOP" 0
let compare a b = Int.compare a.id b.id
let equal a b = Int.equal a.id b.id
let hash s = s.id

let compare_names a b =
  match Names.compare_names a.name b.name with
  | 0 -> Int.compare a.arity b.arity
  | c -> c

let pp ppf s = Fmt.pf ppf "%s/%d" (name s) s.arity
let pp_name ppf s = Fmt.string ppf (name s)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

let sorted_elements s = List.sort compare_names (Set.elements s)
let is_binary_signature s = Set.for_all (fun p -> p.arity <= 2) s
