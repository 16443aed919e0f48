open Nca_logic

type entry = {
  rule : Rule.t;
  hom : Subst.t;
  round : int;
  parents : Atom.t list;
}

module Atom_tbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal = Atom.equal
  let hash = Atom.hash
end)

(* The store doubles as the enabled flag, exactly like [Telemetry]: one
   ref read on the disabled fast path. Recording is first-writer-wins:
   the first derivation of a fact owns its entry forever. *)
let current : entry Atom_tbl.t option ref = ref None

let enabled () = Option.is_some !current
let enable () = current := Some (Atom_tbl.create 256)
let disable () = current := None

let record fact ~rule ~hom ~round ~parents =
  match !current with
  | None -> ()
  | Some tbl ->
      if not (Atom_tbl.mem tbl fact) then
        Atom_tbl.add tbl fact { rule; hom; round; parents }

let find fact =
  match !current with
  | None -> None
  | Some tbl -> Atom_tbl.find_opt tbl fact

let facts_tracked () =
  match !current with None -> 0 | Some tbl -> Atom_tbl.length tbl

let fold f init =
  match !current with
  | None -> init
  | Some tbl -> Atom_tbl.fold f tbl init

type stats = { facts : int; store_bytes : int; max_depth : int }

(* Structural size estimate, in bytes, chosen once and kept stable so
   the stats-json golden stays deterministic: a flat cost per entry (the
   record, the table slot, the fact pointer) plus per-parent and
   per-binding list/map costs. This is a bookkeeping figure, not an
   [Obj.reachable_words] measurement. *)
let entry_bytes e =
  48 + (16 * List.length e.parents) + (32 * List.length (Subst.bindings e.hom))

let store_bytes () =
  match !current with
  | None -> 0
  | Some tbl -> Atom_tbl.fold (fun _ e acc -> acc + entry_bytes e) tbl 0

(* Longest chain of recorded derivations. Parents of a recorded fact were
   present before the fact was derived and recording is first-writer-wins,
   so the recorded graph is acyclic and the memoized recursion terminates. *)
let max_depth () =
  match !current with
  | None -> 0
  | Some tbl ->
      let memo = Atom_tbl.create (Atom_tbl.length tbl) in
      let rec depth fact =
        match Atom_tbl.find_opt memo fact with
        | Some d -> d
        | None ->
            let d =
              match Atom_tbl.find_opt tbl fact with
              | None -> 0
              | Some e ->
                  1 + List.fold_left (fun m p -> max m (depth p)) 0 e.parents
            in
            Atom_tbl.add memo fact d;
            d
      in
      Atom_tbl.fold (fun fact _ m -> max m (depth fact)) tbl 0

let stats () =
  {
    facts = facts_tracked ();
    store_bytes = store_bytes ();
    max_depth = max_depth ();
  }
