(* The store is a mutable span tree plus a counter table behind a
   module-level [current] slot. The slot doubles as the enabled flag:
   every recording entry point reads one slot and returns immediately
   when telemetry is off, so instrumented engine loops pay a single
   option match per checkpoint on the disabled fast path. *)

type node = {
  name : string;
  mutable calls : int;
  mutable time_us : int;
  mutable children : node list; (* newest first; reversed at snapshot *)
}

type store = {
  counters : (string, int ref) Hashtbl.t;
  root : node;
  mutable stack : node list; (* innermost open span first *)
}

let fresh_node name = { name; calls = 0; time_us = 0; children = [] }

let fresh () =
  { counters = Hashtbl.create 32; root = fresh_node "root"; stack = [] }

let current : store option ref = ref None
let enabled () = Option.is_some !current
let enable () = current := Some (fresh ())
let disable () = current := None

let count name n =
  match !current with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.counters name with
      | Some r -> r := !r + n
      | None -> Hashtbl.add s.counters name (ref n))

let incr name = count name 1

let find_child parent name =
  match List.find_opt (fun c -> c.name = name) parent.children with
  | Some c -> c
  | None ->
      let c = fresh_node name in
      parent.children <- c :: parent.children;
      c

(* Spans also drive the deeper profiling layers when those are on:
   each enter/exit becomes an {!Events} timeline record, and each exit
   samples the {!Metrics} memory gauges. The disabled fast path is
   three slot reads (one per layer) — allocation-free and
   branch-predictable at round/stage granularity. *)
let span name f =
  let ev = Events.enabled () in
  let mt = Metrics.enabled () in
  let st = !current in
  if Option.is_none st && (not ev) && not mt then f ()
  else begin
    let lbl = if ev then Events.label name else 0 in
    if ev then Events.enter lbl;
    let deep_exit () =
      if mt then Metrics.sample_memory ();
      if ev then Events.leave lbl
    in
    match st with
    | None -> Fun.protect ~finally:deep_exit f
    | Some s ->
        let parent = match s.stack with [] -> s.root | n :: _ -> n in
        let node = find_child parent name in
        node.calls <- node.calls + 1;
        s.stack <- node :: s.stack;
        let t0 = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            node.time_us <-
              node.time_us
              + int_of_float ((Unix.gettimeofday () -. t0) *. 1_000_000.);
            (match s.stack with
            | top :: rest when top == node -> s.stack <- rest
            | _ -> ());
            deep_exit ())
          f
  end

type span_stats = {
  span_name : string;
  calls : int;
  time_us : int;
  children : span_stats list;
}

type snapshot = { counters : (string * int) list; spans : span_stats list }

let rec freeze node =
  {
    span_name = node.name;
    calls = node.calls;
    time_us = node.time_us;
    children = List.rev_map freeze node.children;
  }

let snapshot () =
  match !current with
  | None -> { counters = []; spans = [] }
  | Some s ->
      {
        counters =
          Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.counters []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        spans = (freeze s.root).children;
      }

let rec scrub_span sp =
  { sp with time_us = 0; children = List.map scrub_span sp.children }

let scrub_times snap = { snap with spans = List.map scrub_span snap.spans }

let pp_snapshot ppf snap =
  let rec pp_span indent sp =
    Fmt.pf ppf "  %s%-*s %6d\xc3\x97 %8d us@." indent
      (max 1 (36 - String.length indent))
      sp.span_name sp.calls sp.time_us;
    List.iter (pp_span (indent ^ "  ")) sp.children
  in
  Fmt.pf ppf "spans:@.";
  if snap.spans = [] then Fmt.pf ppf "  (none)@.";
  List.iter (pp_span "") snap.spans;
  Fmt.pf ppf "counters:@.";
  if snap.counters = [] then Fmt.pf ppf "  (none)@.";
  List.iter (fun (k, v) -> Fmt.pf ppf "  %-36s %10d@." k v) snap.counters
