(* The ring is four parallel int arrays rather than an array of event
   records: recording writes four ints at a fixed index, so the hot
   path allocates nothing and wrap-around is just [n mod cap]. Label
   strings live in a process-global intern table, touched only at
   [label] time — instrumented modules intern at init. *)

type phase = Begin | End | Instant

type event = { phase : phase; label : int; ts_us : int; arg : int }

(* -- label interning ----------------------------------------------- *)

let intern : (string, int) Hashtbl.t = Hashtbl.create 64
let names : string array ref = ref (Array.make 64 "")
let n_labels = ref 0

let label name =
  match Hashtbl.find_opt intern name with
  | Some id -> id
  | None ->
      let id = !n_labels in
      if id = Array.length !names then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit !names 0 bigger 0 id;
        names := bigger
      end;
      !names.(id) <- name;
      Hashtbl.add intern name id;
      incr n_labels;
      id

let label_name id =
  if id < 0 || id >= !n_labels then
    invalid_arg "Events.label_name: unknown label id";
  !names.(id)

(* -- the ring ------------------------------------------------------ *)

type ring = {
  cap : int;
  e_phase : int array; (* 0 = Begin, 1 = End, 2 = Instant *)
  e_label : int array;
  e_ts : int array;
  e_arg : int array;
  mutable n : int; (* total ever recorded; next write at [n mod cap] *)
}

let fresh capacity =
  let cap = max 16 capacity in
  {
    cap;
    e_phase = Array.make cap 0;
    e_label = Array.make cap 0;
    e_ts = Array.make cap 0;
    e_arg = Array.make cap 0;
    n = 0;
  }

let current : ring option ref = ref None
let enabled () = Option.is_some !current
let enable ?(capacity = 65536) () = current := Some (fresh capacity)
let disable () = current := None
let now_us () = int_of_float (Unix.gettimeofday () *. 1_000_000.)

let record phase ?(arg = -1) lbl =
  match !current with
  | None -> ()
  | Some r ->
      let i = r.n mod r.cap in
      r.e_phase.(i) <- phase;
      r.e_label.(i) <- lbl;
      r.e_ts.(i) <- now_us ();
      r.e_arg.(i) <- arg;
      r.n <- r.n + 1

let instant ?arg lbl = record 2 ?arg lbl
let enter ?arg lbl = record 0 ?arg lbl
let leave lbl = record 1 lbl

type snapshot = { events : event list; dropped : int }

let phase_of = function 0 -> Begin | 1 -> End | _ -> Instant

let snapshot () =
  match !current with
  | None -> { events = []; dropped = 0 }
  | Some r ->
      let live = min r.n r.cap in
      let first = r.n - live in
      let events = ref [] in
      for k = live - 1 downto 0 do
        let i = (first + k) mod r.cap in
        events :=
          {
            phase = phase_of r.e_phase.(i);
            label = r.e_label.(i);
            ts_us = r.e_ts.(i);
            arg = r.e_arg.(i);
          }
          :: !events
      done;
      { events = !events; dropped = max 0 (r.n - r.cap) }

let scrub_times snap =
  { snap with events = List.map (fun e -> { e with ts_us = 0 }) snap.events }
