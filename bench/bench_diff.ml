(* bench_diff: the automated guard on the perf trajectory.

     bench_diff.exe OLD.json NEW.json [--threshold PCT] [--warn-only]

   Compares two BENCH_chase.json-shaped documents row by row (key =
   kind/name, metric = the after_us median) and exits nonzero when a
   shared workload slowed past the threshold and past the two
   documents' combined spread (after_iqr_us) — unless the documents are
   not commensurable (different hosts, smoke vs full, or no spread), in
   which case the diff can only warn. Diagnostics keep the [nocliques:]
   prefix of the toolkit. *)

module Json = Nca_analysis.Json

let run old_path new_path threshold warn_only =
  let parse path =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error msg ->
        Fmt.epr "nocliques: %s: invalid JSON: %s@." path msg;
        exit 2
    | exception Sys_error reason ->
        Fmt.epr "nocliques: %s@." reason;
        exit 2
  in
  let old_doc = parse old_path and new_doc = parse new_path in
  let rows path doc =
    match Option.bind (Json.member "workloads" doc) Json.to_list with
    | Some rows -> rows
    | None ->
        Fmt.epr "nocliques: %s: not a bench document (no workloads)@." path;
        exit 2
  in
  let old_rows = rows old_path old_doc and new_rows = rows new_path new_doc in
  let str k row = Option.bind (Json.member k row) Json.to_str in
  let int k row = Option.bind (Json.member k row) Json.to_int in
  let key row =
    Fmt.str "%s/%s"
      (Option.value ~default:"?" (str "kind" row))
      (Option.value ~default:"?" (str "name" row))
  in
  let metric = int "after_us" and spread = int "after_iqr_us" in
  (* comparability: a smoke run against a full run, absent or differing
     host metadata, or rows without a spread (bench < v3) mean the
     timings are not commensurable and the diff can only warn *)
  let host doc =
    match Json.member "host" doc with
    | Some h ->
        Some
          ( Option.bind (Json.member "cores" h) Json.to_int,
            Option.bind (Json.member "ocaml_version" h) Json.to_str )
    | None -> None
  in
  let smoke doc =
    match Json.member "smoke" doc with Some (Json.Bool b) -> b | _ -> false
  in
  let has_spread =
    List.for_all (fun r -> metric r = None || spread r <> None)
  in
  let incomparable =
    if smoke old_doc <> smoke new_doc then Some "smoke run vs full run"
    else if not (has_spread old_rows && has_spread new_rows) then
      Some "spread missing (bench < v3)"
    else
      match (host old_doc, host new_doc) with
      | Some h1, Some h2 when h1 = h2 -> None
      | Some _, Some _ -> Some "host blocks differ"
      | None, _ | _, None -> Some "host metadata missing (bench < v2)"
  in
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace old_tbl (key r) r) old_rows;
  let pp_iqr ppf = function
    | Some i -> Fmt.pf ppf "%6d" i
    | None -> Fmt.pf ppf "%6s" "?"
  in
  let regressions = ref 0 in
  List.iter
    (fun row ->
      let k = key row in
      match Hashtbl.find_opt old_tbl k with
      | None -> Fmt.pr "%-34s %47s (new row)@." k ""
      | Some old_row -> (
          Hashtbl.remove old_tbl k;
          match (metric old_row, metric row) with
          | Some o, Some n ->
              let delta = ((n - o) * 100) / max 1 o in
              let noise =
                Option.value ~default:0 (spread old_row)
                + Option.value ~default:0 (spread row)
              in
              let slower = delta > threshold && n - o > noise in
              if slower then incr regressions;
              Fmt.pr "%-34s %10d ±%a us -> %10d ±%a us  %+4d%%%s@." k o
                pp_iqr (spread old_row) n pp_iqr (spread row) delta
                (if slower then "  SLOWER" else "")
          | _ -> Fmt.pr "%-34s %47s (no timing)@." k ""))
    new_rows;
  Hashtbl.fold (fun k _ acc -> k :: acc) old_tbl []
  |> List.sort String.compare
  |> List.iter (fun k -> Fmt.pr "%-34s %47s (removed)@." k "");
  if !regressions = 0 then 0
  else begin
    Fmt.epr
      "nocliques: %d workload(s) slower than the %d%% threshold and the \
       combined spread@."
      !regressions threshold;
    match incomparable with
    | Some reason when not warn_only ->
        Fmt.epr "nocliques: %s: warn only@." reason;
        0
    | _ -> if warn_only then 0 else 1
  end

let () =
  let threshold = ref 25 and warn_only = ref false and paths = ref [] in
  let usage =
    "bench_diff.exe OLD.json NEW.json [--threshold PCT] [--warn-only]"
  in
  let specs =
    [
      ( "--threshold",
        Arg.Set_int threshold,
        "PCT per-workload slowdown tolerance in percent (default 25): a row \
         counts as a regression when its after_us median grew by more than \
         PCT% and by more than the two documents' after_iqr_us combined" );
      ( "--warn-only",
        Arg.Set warn_only,
        " report regressions but always exit 0 (for noisy CI containers)" );
    ]
  in
  Arg.parse specs (fun path -> paths := path :: !paths) usage;
  match List.rev !paths with
  | [ old_path; new_path ] ->
      exit (run old_path new_path !threshold !warn_only)
  | _ ->
      Arg.usage specs usage;
      exit 2
