module Telemetry = Nca_obs.Telemetry

let ev_miss = Nca_obs.Events.label "plan.cache.miss"

(* Keyed on the body list itself: atoms are hash-consed, so hashing the
   ids and comparing elements physically identifies the same join with
   no per-lookup allocation. *)
module Tbl = Hashtbl.Make (struct
  type t = Atom.t list

  let equal = List.equal Atom.equal
  let hash = List.fold_left (fun h a -> (h * 31) + Atom.id a) 0
end)

(* The memo table is global: plans are pure functions of the body, and
   the engines pass the same physically-shared bodies every round. *)
let tbl : Plan.t Tbl.t = Tbl.create 64
let hits = ref 0
let misses = ref 0

let find_or_compile ?stats body =
  match Tbl.find_opt tbl body with
  | Some plan ->
      incr hits;
      Telemetry.incr "plan.cache.hit";
      plan
  | None ->
      incr misses;
      Telemetry.incr "plan.cache.miss";
      Telemetry.instant ev_miss;
      let plan =
        Telemetry.span "plan.compile" (fun () -> Plan.compile ?stats body)
      in
      Tbl.add tbl body plan;
      plan

let stats () = (Tbl.length tbl, !hits, !misses)

let clear () =
  Tbl.reset tbl;
  hits := 0;
  misses := 0
