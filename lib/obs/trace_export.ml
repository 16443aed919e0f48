(* Chrome trace-event JSON is built with a plain [Buffer]: [Nca_obs]
   sits below the analysis layer, so it can't borrow [Nca_analysis.Json]
   without inverting the library graph — and the format is flat enough
   that hand-rolling beats carrying a dependency. *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let chrome_json (snap : Events.snapshot) =
  let base =
    List.fold_left
      (fun acc (e : Events.event) -> min acc e.ts_us)
      max_int snap.events
  in
  let base = if base = max_int then 0 else base in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i (e : Events.event) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":\"";
      escape buf (Events.label_name e.label);
      Buffer.add_string buf "\",\"cat\":\"obs\",\"ph\":\"";
      Buffer.add_string buf
        (match e.phase with
        | Events.Begin -> "B"
        | Events.End -> "E"
        | Events.Instant -> "i");
      Buffer.add_string buf "\",\"ts\":";
      Buffer.add_string buf (string_of_int (e.ts_us - base));
      Buffer.add_string buf ",\"pid\":1,\"tid\":0";
      (match e.phase with
      | Events.Instant -> Buffer.add_string buf ",\"s\":\"t\""
      | _ -> ());
      if e.arg >= 0 then begin
        Buffer.add_string buf ",\"args\":{\"v\":";
        Buffer.add_string buf (string_of_int e.arg);
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    snap.events;
  Buffer.add_string buf "],\"droppedEvents\":";
  Buffer.add_string buf (string_of_int snap.dropped);
  Buffer.add_string buf "}";
  Buffer.contents buf

(* -- folded stacks ------------------------------------------------- *)

type frame = { lbl : int; start : int; mutable child : int }

let folded (snap : Events.snapshot) =
  let acc : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let add stack self =
    let self = max 0 self in
    match Hashtbl.find_opt acc stack with
    | Some n -> Hashtbl.replace acc stack (n + self)
    | None -> Hashtbl.add acc stack self
  in
  let stack_string stack =
    (* [stack] is innermost-first *)
    String.concat ";" (List.rev_map (fun f -> Events.label_name f.lbl) stack)
  in
  let stack = ref [] in
  let last_ts = ref 0 in
  let close ts =
    match !stack with
    | [] -> ()
    | f :: rest ->
        let dur = max 0 (ts - f.start) in
        add (stack_string !stack) (dur - f.child);
        (match rest with p :: _ -> p.child <- p.child + dur | [] -> ());
        stack := rest
  in
  List.iter
    (fun (e : Events.event) ->
      last_ts := max !last_ts e.ts_us;
      match e.phase with
      | Events.Begin ->
          stack := { lbl = e.label; start = e.ts_us; child = 0 } :: !stack
      | Events.End -> (
          (* an End whose Begin was dropped by ring wrap-around has no
             frame to close; skip it *)
          match !stack with
          | f :: _ when f.lbl = e.label -> close e.ts_us
          | _ -> ())
      | Events.Instant -> ())
    snap.events;
  (* budget stops / truncated rings leave open frames: close them at the
     last timestamp seen *)
  while !stack <> [] do
    close !last_ts
  done;
  let lines = Hashtbl.fold (fun k v acc -> (k, v) :: acc) acc [] in
  let lines = List.sort (fun (a, _) (b, _) -> String.compare a b) lines in
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) lines)
