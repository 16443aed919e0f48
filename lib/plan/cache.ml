open Nca_logic
module Telemetry = Nca_obs.Telemetry

let ev_miss = Nca_obs.Events.label "plan.cache.miss"

(* The memo table is global: plans are pure functions of the body's
   hash-consed atom ids, and the engines pass the same physically-shared
   bodies every round. *)
let tbl : (int list, Plan.t) Hashtbl.t = Hashtbl.create 64
let hits = ref 0
let misses = ref 0

let find_or_compile ?stats body =
  let key = List.map Atom.id body in
  match Hashtbl.find_opt tbl key with
  | Some plan ->
      incr hits;
      Telemetry.incr "plan.cache.hit";
      plan
  | None ->
      incr misses;
      Telemetry.incr "plan.cache.miss";
      Nca_obs.Events.instant ev_miss;
      let plan =
        Telemetry.span "plan.compile" (fun () -> Plan.compile ?stats body)
      in
      Hashtbl.add tbl key plan;
      plan

let stats () = (Hashtbl.length tbl, !hits, !misses)

let clear () =
  Hashtbl.reset tbl;
  hits := 0;
  misses := 0
