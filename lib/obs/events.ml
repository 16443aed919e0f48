(* Label strings live in a process-global intern table, touched only at
   [label] time — instrumented modules intern at init. *)

type phase = Begin | End | Instant
type event = { phase : phase; label : int; ts_us : int; arg : int }

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

type snapshot = { events : event list; dropped : int }

let now_us () = int_of_float (Unix.gettimeofday () *. 1_000_000.)
