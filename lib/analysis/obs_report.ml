let schema = "nocliques/stats/v6"

let rec span_json (s : Nca_obs.Telemetry.span_stats) =
  Json.Obj
    [
      ("name", Json.String s.span_name);
      ("calls", Json.Int s.calls);
      ("time_us", Json.Int s.time_us);
      ("children", Json.List (List.map span_json s.children));
    ]

let provenance_json () =
  let p = Nca_provenance.Provenance.stats () in
  Json.Obj
    [
      ("facts", Json.Int p.Nca_provenance.Provenance.facts);
      ("store_bytes", Json.Int p.Nca_provenance.Provenance.store_bytes);
      ("max_depth", Json.Int p.Nca_provenance.Provenance.max_depth);
    ]

let plan_json () =
  let plans, hits, misses = Nca_logic.Cache.stats () in
  Json.Obj
    [
      (* a constant since the planner became the only engine; kept so
         the v6 shape stays byte-identical until stats v7 drops it *)
      ("enabled", Json.Bool true);
      ("plans", Json.Int plans);
      ("cache_hits", Json.Int hits);
      ("cache_misses", Json.Int misses);
    ]

let sat_json () =
  let s = Nca_sat.Stats.snapshot () in
  Json.Obj
    [
      ("solves", Json.Int s.Nca_sat.Stats.solves);
      ("vars", Json.Int s.Nca_sat.Stats.vars);
      ("clauses", Json.Int s.Nca_sat.Stats.clauses);
      ("learnt", Json.Int s.Nca_sat.Stats.learnt);
      ("decisions", Json.Int s.Nca_sat.Stats.decisions);
      ("conflicts", Json.Int s.Nca_sat.Stats.conflicts);
      ("propagations", Json.Int s.Nca_sat.Stats.propagations);
    ]

(* A constant since the engine became sequential: the block stays so
   [nocliques/stats/v6] is unchanged for consumers. *)
let parallel_json =
  Json.Obj
    [ ("jobs", Json.Int 1); ("batches", Json.Int 0); ("domains", Json.List []) ]

let histo_json (s : Nca_obs.Metrics.snapshot) =
  Json.Obj
    (List.map
       (fun (name, h) ->
         let s = Nca_obs.Metrics.Histo.summary h in
         ( name,
           Json.Obj
             [
               ("count", Json.Int s.Nca_obs.Metrics.Histo.count);
               ("sum", Json.Int s.Nca_obs.Metrics.Histo.sum);
               ("max", Json.Int s.Nca_obs.Metrics.Histo.max);
               ("p50", Json.Int s.Nca_obs.Metrics.Histo.p50);
               ("p90", Json.Int s.Nca_obs.Metrics.Histo.p90);
               ("p99", Json.Int s.Nca_obs.Metrics.Histo.p99);
             ] ))
       s.Nca_obs.Metrics.histos)

let memory_json (s : Nca_obs.Metrics.snapshot) =
  Json.Obj
    (List.map
       (fun (name, (last, mx)) ->
         (name, Json.Obj [ ("last", Json.Int last); ("max", Json.Int mx) ]))
       s.Nca_obs.Metrics.gauges)

let of_snapshot ?metrics (snap : Nca_obs.Telemetry.snapshot) =
  let metrics = Option.value metrics ~default:snap.metrics in
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snap.counters) );
      ("plan", plan_json ());
      ("sat", sat_json ());
      ("parallel", parallel_json);
      ("provenance", provenance_json ());
      ("histograms", histo_json metrics);
      ("memory", memory_json metrics);
      ("spans", Json.List (List.map span_json snap.spans));
    ]
