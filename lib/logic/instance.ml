(* Atoms are held in a set plus two derived indexes: by predicate, and by
   (predicate, argument position, term). The positional index is the basis
   of the candidate intersection used by the homomorphism search: an atom
   pattern with k bound positions restricts the search to the intersection
   of k indexed sets instead of every atom of the predicate. *)

module Pos = struct
  (* (symbol id, argument position, term code): a pure int triple, so
     the positional map never touches a string. *)
  type t = int * int * int

  let compare (p1, i1, t1) (p2, i2, t2) =
    match Int.compare p1 p2 with
    | 0 -> ( match Int.compare i1 i2 with 0 -> Int.compare t1 t2 | c -> c)
    | c -> c

  let key p i t = (Symbol.id p, i, Term.code t)
end

module Pos_map = Map.Make (Pos)

(* An index entry: the atoms sharing a key and how many there are, so
   the search's root scoring reads a cardinal without walking the set or
   freezing it. A lone atom — most positional keys — is stored bare. *)
type bucket = One of Atom.t | Many of { set : Atom.Set.t; card : int }

(* [add]/[remove] only add an atom the instance lacks and only remove
   one it has, so the counts stay exact. *)
let bucket_add a = function
  | None -> Some (One a)
  | Some (One b) ->
      Some (Many { set = Atom.Set.add a (Atom.Set.singleton b); card = 2 })
  | Some (Many m) ->
      Some (Many { set = Atom.Set.add a m.set; card = m.card + 1 })

let bucket_remove a = function
  | None | Some (One _) -> None
  | Some (Many { set; card }) ->
      let set = Atom.Set.remove a set in
      if card = 2 then Some (One (Atom.Set.choose set))
      else Some (Many { set; card = card - 1 })

let bucket_card = function
  | None -> 0
  | Some (One _) -> 1
  | Some (Many m) -> m.card

(* ascending id order, the order of [Atom.Set.elements] *)
let bucket_array = function
  | None -> [||]
  | Some (One a) -> [| a |]
  | Some (Many m) -> Array.of_list (Atom.Set.elements m.set)

type t = {
  atoms : Atom.Set.t;
  size : int;
  index : bucket Symbol.Map.t;
  pos : bucket Pos_map.t;
  (* Frozen posting arrays, filled on demand by {!posting} and
     {!pred_array}. Each array is derived from the immutable [pos]/[index]
     maps of this very record, so memoizing it here never changes the
     observable value of the instance — [add]/[remove] build records with
     fresh empty caches. Atoms are stored in ascending [Atom.id] order
     ([Atom.Set.elements]), the order the leapfrog executor merges on. *)
  mutable acache : Atom.t array Pos_map.t;
  mutable pcache : Atom.t array Symbol.Map.t;
}

let empty =
  {
    atoms = Atom.Set.empty;
    size = 0;
    index = Symbol.Map.empty;
    pos = Pos_map.empty;
    acache = Pos_map.empty;
    pcache = Symbol.Map.empty;
  }

let update_pos f a pos =
  let p = Atom.pred a in
  snd
    (List.fold_left
       (fun (i, pos) t -> (i + 1, f (Pos.key p i t) pos))
       (0, pos) (Atom.args a))

let add a i =
  if Atom.Set.mem a i.atoms then i
  else
    {
      atoms = Atom.Set.add a i.atoms;
      size = i.size + 1;
      index = Symbol.Map.update (Atom.pred a) (bucket_add a) i.index;
      pos =
        update_pos
          (fun key pos -> Pos_map.update key (bucket_add a) pos)
          a i.pos;
      acache = Pos_map.empty;
      pcache = Symbol.Map.empty;
    }

let remove a i =
  if not (Atom.Set.mem a i.atoms) then i
  else
    {
      atoms = Atom.Set.remove a i.atoms;
      size = i.size - 1;
      index = Symbol.Map.update (Atom.pred a) (bucket_remove a) i.index;
      pos =
        update_pos
          (fun key pos -> Pos_map.update key (bucket_remove a) pos)
          a i.pos;
      acache = Pos_map.empty;
      pcache = Symbol.Map.empty;
    }

let of_list l = List.fold_left (fun i a -> add a i) empty l
let top = of_list [ Atom.top ]
let atoms i = Atom.Set.elements i.atoms
let to_set i = i.atoms
let mem a i = Atom.Set.mem a i.atoms
let cardinal i = i.size
let is_empty i = i.size = 0
let fold f i acc = Atom.Set.fold f i.atoms acc
let iter f i = Atom.Set.iter f i.atoms
let union a b = fold add b a
let diff a b = fold remove b a
let inter a b = fold (fun x acc -> if mem x b then acc else remove x acc) a a
let subset a b = Atom.Set.subset a.atoms b.atoms
let equal a b = Atom.Set.equal a.atoms b.atoms
let compare a b = Atom.Set.compare a.atoms b.atoms
let filter p i = fold (fun a acc -> if p a then acc else remove a acc) i i
let for_all p i = Atom.Set.for_all p i.atoms
let exists p i = Atom.Set.exists p i.atoms

let adom i =
  fold (fun a acc -> Term.Set.union acc (Atom.terms a)) i Term.Set.empty

let with_pred p i =
  match Symbol.Map.find_opt p i.index with
  | None -> []
  | Some (One a) -> [ a ]
  | Some (Many m) -> Atom.Set.elements m.set

let posting p pos t i =
  let key = Pos.key p pos t in
  match Pos_map.find_opt key i.acache with
  | Some arr -> arr
  | None ->
      let arr = bucket_array (Pos_map.find_opt key i.pos) in
      i.acache <- Pos_map.add key arr i.acache;
      arr

let pred_array p i =
  match Symbol.Map.find_opt p i.pcache with
  | Some arr -> arr
  | None ->
      let arr = bucket_array (Symbol.Map.find_opt p i.index) in
      i.pcache <- Symbol.Map.add p arr i.pcache;
      arr

let pred_cardinal p i = bucket_card (Symbol.Map.find_opt p i.index)

let pos_cardinal p pos t i =
  bucket_card (Pos_map.find_opt (Pos.key p pos t) i.pos)

let signature i =
  Symbol.Map.fold (fun p _ acc -> Symbol.Set.add p acc) i.index
    Symbol.Set.empty

let restrict sign i =
  filter (fun a -> Symbol.Set.mem (Atom.pred a) sign) i

let map_terms f i = fold (fun a acc -> add (Atom.map f a) acc) i empty
let apply s i = map_terms (Subst.apply s) i

let rename_apart ~avoid i =
  let rec fresh_avoiding () =
    let v = Term.fresh_var () in
    if Term.Set.mem v avoid then fresh_avoiding () else v
  in
  let renaming =
    (* iterate in name order so generated names are assigned
       deterministically, independent of intern-id order *)
    List.fold_left
      (fun acc t ->
        if Term.is_mappable t then Subst.add t (fresh_avoiding ()) acc
        else acc)
      Subst.empty
      (Term.sorted_elements (adom i))
  in
  (apply renaming i, renaming)

let critical sign =
  let star = Term.cst "*" in
  Symbol.Set.fold
    (fun p acc ->
      add (Atom.make p (List.init (Symbol.arity p) (fun _ -> star))) acc)
    sign empty

let generalize i =
  map_terms
    (fun t ->
      match t with
      | Term.Cst c -> Term.var ("g!" ^ Names.name c)
      | Term.Var _ | Term.Null _ -> t)
    i

let disjoint_union a b =
  let b', _ = rename_apart ~avoid:(adom a) b in
  union a b'

let edges p i =
  List.filter_map Atom.as_edge (with_pred p i)

let sorted_atoms i = Atom.sorted_elements i.atoms

let pp ppf i =
  Fmt.pf ppf "{@[<hov>%a@]}" Fmt.(list ~sep:comma Atom.pp) (sorted_atoms i)
