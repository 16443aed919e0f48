(* The store sits behind one module-level [current] slot, which doubles
   as the enabled flag: every recording entry point reads the slot once
   and returns immediately when recording is off, so instrumented engine
   loops pay a single option match per checkpoint on the disabled path. *)

type node = {
  name : string;
  mutable calls : int;
  mutable time_us : int;
  mutable children : node list; (* newest first; reversed at snapshot *)
}

type gauge = { mutable last : int; mutable gmax : int }

(* The timeline ring is four parallel arrays of immediates rather than an
   array of event records: recording writes four words at a fixed index,
   so it allocates nothing and wrap-around is just [n mod cap]. *)
type ring = {
  e_phase : Events.phase array;
  e_label : int array;
  e_ts : int array;
  e_arg : int array;
  mutable n : int; (* total ever recorded; next write at [n mod cap] *)
}

type store = {
  counters : (string, int ref) Hashtbl.t;
  root : node;
  mutable stack : node list; (* innermost open span first *)
  histos : (string, Histo.t) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  mutable next_sample_us : int;
  ring : ring option;
}

let fresh_node name = { name; calls = 0; time_us = 0; children = [] }

let fresh_ring capacity =
  let cap = max 16 capacity in
  let a () = Array.make cap 0 in
  let e_phase = Array.make cap Events.Instant in
  { e_phase; e_label = a (); e_ts = a (); e_arg = a (); n = 0 }

let fresh timeline =
  {
    counters = Hashtbl.create 32;
    root = fresh_node "root";
    stack = [];
    histos = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    next_sample_us = 0;
    ring = Option.map fresh_ring timeline;
  }

let current : store option ref = ref None
let enabled () = Option.is_some !current
let enable ?timeline () = current := Some (fresh timeline)
let disable () = current := None

(* the entry [name] of [tbl], made on first use *)
let entry tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl name v;
      v

let count name n =
  match !current with
  | None -> ()
  | Some s ->
      let r = entry s.counters name (fun () -> ref 0) in
      r := !r + n

let incr name = count name 1
let histo s name = entry s.histos name Histo.create

let observe name v =
  match !current with None -> () | Some s -> Histo.observe (histo s name) v

let record r phase lbl ts arg =
  let i = r.n mod Array.length r.e_phase in
  r.e_phase.(i) <- phase;
  r.e_label.(i) <- lbl;
  r.e_ts.(i) <- ts;
  r.e_arg.(i) <- arg;
  r.n <- r.n + 1

let instant ?(arg = -1) lbl =
  match !current with
  | Some { ring = Some r; _ } -> record r Instant lbl (Events.now_us ()) arg
  | Some { ring = None; _ } | None -> ()

(* -- memory gauges -------------------------------------------------- *)

let samplers : (string * (unit -> int)) list ref = ref []

let register_sampler name probe =
  samplers := (name, probe) :: List.remove_assoc name !samplers

let gauge s name v =
  let g = entry s.gauges name (fun () -> { last = v; gmax = v }) in
  g.last <- v;
  if v > g.gmax then g.gmax <- v

(* [Gc.quick_stat]'s word counts only move at a collection, so a short
   run would report 0. [Gc.minor_words] and [Gc.counters]' major words
   are current at the call; [Gc.counters]' minor words are not (OCaml
   5.1 undercounts the part allocated since the last collection). *)
let sample s =
  let _, _, major = Gc.counters () in
  gauge s "gc.minor_words" (int_of_float (Gc.minor_words ()));
  gauge s "gc.major_words" (int_of_float major);
  gauge s "gc.heap_words" (Gc.quick_stat ()).Gc.heap_words;
  List.iter (fun (name, probe) -> gauge s name (probe ())) !samplers

let sample_memory () = Option.iter sample !current

(* -- spans ---------------------------------------------------------- *)

let find_child parent name =
  match List.find_opt (fun c -> c.name = name) parent.children with
  | Some c -> c
  | None ->
      let c = fresh_node name in
      parent.children <- c :: parent.children;
      c

let span ?histo:h name f =
  match !current with
  | None -> f ()
  | Some s -> (
      let parent = match s.stack with [] -> s.root | n :: _ -> n in
      let node = find_child parent name in
      node.calls <- node.calls + 1;
      s.stack <- node :: s.stack;
      let lbl = if Option.is_some s.ring then Events.label name else 0 in
      let t0 = Events.now_us () in
      Option.iter (fun r -> record r Begin lbl t0 (-1)) s.ring;
      let leave () =
        let t1 = Events.now_us () in
        node.time_us <- node.time_us + (t1 - t0);
        (match s.stack with
        | top :: rest when top == node -> s.stack <- rest
        | _ -> ());
        Option.iter (fun r -> record r End lbl t1 (-1)) s.ring;
        (* the probes walk process-wide tables: a hot span (one plan
           compile per one-shot query body) must not pay that per call *)
        if t1 >= s.next_sample_us then begin
          s.next_sample_us <- t1 + 1000;
          sample s
        end;
        t1 - t0
      in
      match f () with
      | v ->
          let dt = leave () in
          Option.iter (fun h -> Histo.observe (histo s h) dt) h;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (leave () : int);
          Printexc.raise_with_backtrace e bt)

let timed h f =
  match !current with
  | None -> f ()
  | Some s ->
      let t0 = Events.now_us () in
      let v = f () in
      Histo.observe (histo s h) (Events.now_us () - t0);
      v

(* -- snapshots ------------------------------------------------------ *)

type span_stats = {
  span_name : string;
  calls : int;
  time_us : int;
  children : span_stats list;
}

type metrics = {
  histos : (string * Histo.t) list;
  gauges : (string * (int * int)) list;
}

type snapshot = {
  counters : (string * int) list;
  spans : span_stats list;
  metrics : metrics;
  timeline : Events.snapshot;
}

let rec freeze node =
  {
    span_name = node.name;
    calls = node.calls;
    time_us = node.time_us;
    children = List.rev_map freeze node.children;
  }

let freeze_ring r =
  let cap = Array.length r.e_phase in
  let live = min r.n cap in
  let events =
    List.init live (fun k ->
        let i = (r.n - live + k) mod cap in
        {
          Events.phase = r.e_phase.(i);
          label = r.e_label.(i);
          ts_us = r.e_ts.(i);
          arg = r.e_arg.(i);
        })
  in
  { Events.events; dropped = r.n - live }

let sorted tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  (* off: the snapshot of an empty store *)
  let s = match !current with Some s -> s | None -> fresh None in
  {
    counters = sorted s.counters ( ! );
    spans = (freeze s.root).children;
    metrics =
      {
        histos = sorted s.histos Histo.copy;
        gauges = sorted s.gauges (fun g -> (g.last, g.gmax));
      };
    timeline =
      Option.fold ~none:{ Events.events = []; dropped = 0 } ~some:freeze_ring
        s.ring;
  }

let rec scrub_span sp =
  { sp with time_us = 0; children = List.map scrub_span sp.children }

(* Bucket placement of a latency is timing-dependent, so scrubbing
   collapses every histogram to [count] observations of 0: what survives
   is exactly the deterministic part. *)
let scrub snap =
  let { histos; gauges } = snap.metrics in
  let { Events.events; dropped } = snap.timeline in
  {
    snap with
    spans = List.map scrub_span snap.spans;
    metrics =
      {
        histos = List.map (fun (k, h) -> (k, Histo.scrub h)) histos;
        gauges = List.map (fun (k, _) -> (k, (0, 0))) gauges;
      };
    timeline =
      {
        events =
          List.map (fun (e : Events.event) -> { e with ts_us = 0 }) events;
        dropped;
      };
  }

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
