(* Global intern table mapping strings to dense integer ids.

   Every name that enters the system — parsed identifiers, generated
   fresh variables, predicate names — is registered here exactly once;
   [Term.t] and [Symbol.t] then carry the dense id instead of the
   string, so equality, comparison and hashing downstream are integer
   operations. The table only grows: ids are never recycled, which is
   what makes them safe to use as array indices and hash keys across
   the whole lifetime of the process. The id → string direction is a
   doubling array, the string → id direction a [Hashtbl]. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 1024
let names : string array ref = ref (Array.make 1024 "")
let next = ref 0

let intern s =
  match Hashtbl.find_opt table s with
  | Some id -> id
  | None ->
      let id = !next in
      if id = Array.length !names then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit !names 0 bigger 0 id;
        names := bigger
      end;
      !names.(id) <- s;
      Hashtbl.add table s id;
      next := id + 1;
      id

let name id =
  if id < 0 || id >= !next then
    invalid_arg (Printf.sprintf "Names.name: unknown id %d" id);
  !names.(id)

let known s = Hashtbl.mem table s
let count () = !next

let live_bytes () =
  let acc = ref 0 in
  for id = 0 to !next - 1 do
    acc := !acc + String.length !names.(id)
  done;
  !acc

let compare_names a b =
  if Int.equal a b then 0 else String.compare (name a) (name b)

(* Fresh-name generation.

   A single counter shared by all prefixes replicates the historical
   [Term.fresh_var] numbering (e.g. [_enc1], [_enc2], then [_v3]), which
   downstream golden tests depend on. Unlike the historical scheme the
   generated name is checked against the intern table and skipped if a
   user program already claimed it, so freshness holds by construction
   rather than by the [_]-prefix convention alone. *)
let gen = ref 0

let rec fresh ?(prefix = "v") () =
  incr gen;
  let s = Printf.sprintf "_%s%d" prefix !gen in
  if Hashtbl.mem table s then fresh ~prefix () else intern s

(* Labelled nulls are numbered, not named; they share the "only ever
   incremented" discipline so chase runs never reuse a null. *)
let null_gen = ref 0

let fresh_null_id () =
  incr null_gen;
  !null_gen

let is_reserved s = String.length s > 0 && s.[0] = '_'
