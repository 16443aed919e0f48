(* The resource governor and telemetry layer.

   Three families of guarantees:
   - verdicts: each engine reports exhaustion as a typed value naming the
     resource that ran out — never an exception, never a silent flag;
   - prefix safety: a budgeted run computes a prefix of the unbudgeted
     run (same levels, same timestamps, same provenance; a subset of the
     Datalog closure) — stopping early never changes what was computed;
   - telemetry neutrality: with recording disabled every entry point is a
     no-op, and the JSON stats shape is pinned by a golden. *)

open Nca_logic
module Chase = Nca_chase.Chase
module Datalog = Nca_chase.Datalog
module Finite_model = Nca_chase.Finite_model
module Rewrite = Nca_rewriting.Rewrite
module Rulesets = Nca_core.Rulesets
module Budget = Nca_obs.Budget
module Exhausted = Nca_obs.Exhausted
module Telemetry = Nca_obs.Telemetry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let resource = function
  | None -> None
  | Some (e : Exhausted.t) -> Some e.resource

let example1 = Rulesets.example1

(* ------------------------------------------------------------------ *)
(* Budget values *)

let test_unlimited_passes_everything () =
  let b = Budget.unlimited in
  check "interrupted" true (Budget.interrupted b = None);
  check "depth" true (Budget.depth b ~used:max_int = None);
  check "rounds" true (Budget.rounds b ~used:max_int = None);
  check "atoms" true (Budget.atoms b ~used:max_int = None);
  check "steps" true (Budget.steps b ~used:max_int = None);
  check "disjuncts" true (Budget.disjuncts b ~used:max_int = None);
  check "is_unlimited" true (Budget.is_unlimited b)

let test_checkpoint_directions () =
  (* the comparison directions replicate the seed engines: depth and
     rounds_reached stop at used >= limit, the rest at used > limit *)
  let b = Budget.v ~max_depth:3 ~max_rounds:3 ~max_atoms:3 ~max_steps:3 () in
  check "depth below" true (Budget.depth b ~used:2 = None);
  check "depth at" true (resource (Budget.depth b ~used:3) = Some Exhausted.Depth);
  check "rounds at" true (Budget.rounds b ~used:3 = None);
  check "rounds above" true
    (resource (Budget.rounds b ~used:4) = Some Exhausted.Rounds);
  check "rounds_reached at" true
    (resource (Budget.rounds_reached b ~used:3) = Some Exhausted.Rounds);
  check "atoms at" true (Budget.atoms b ~used:3 = None);
  check "atoms above" true
    (resource (Budget.atoms b ~used:4) = Some Exhausted.Atoms);
  check "steps above" true
    (resource (Budget.steps b ~used:4) = Some Exhausted.Steps)

let test_intersect_takes_tighter () =
  let a = Budget.v ~max_depth:5 ~max_atoms:100 () in
  let b = Budget.v ~max_depth:3 ~max_steps:7 () in
  let i = Budget.intersect a b in
  check "tighter depth" true (i.Budget.max_depth = Some 3);
  check "atoms kept" true (i.Budget.max_atoms = Some 100);
  check "steps kept" true (i.Budget.max_steps = Some 7);
  check "rounds unbounded" true (i.Budget.max_rounds = None)

let test_wall_clock_verdict () =
  let b = Budget.v ~timeout_s:0.0 () in
  check "deadline already passed" true
    (resource (Budget.interrupted b) = Some Exhausted.Wall_clock)

let test_cancel_verdict () =
  let fired = ref false in
  let b = Budget.v ~cancel:(fun () -> !fired) () in
  check "not cancelled yet" true (Budget.interrupted b = None);
  fired := true;
  check "cancelled" true
    (resource (Budget.interrupted b) = Some Exhausted.Cancelled)

(* ------------------------------------------------------------------ *)
(* Engine verdicts *)

let test_chase_wall_clock_stop () =
  let c =
    Chase.run ~budget:(Budget.v ~timeout_s:0.0 ()) example1.instance
      example1.rules
  in
  check "stopped on wall clock" true
    (resource c.stopped = Some Exhausted.Wall_clock);
  check "not saturated" false c.saturated;
  check "input level still present" true
    (Instance.equal (Chase.level c 0) example1.instance)

let test_chase_cancel_stop () =
  let c =
    Chase.run
      ~budget:(Budget.v ~cancel:(fun () -> true) ())
      example1.instance example1.rules
  in
  check "stopped on cancellation" true
    (resource c.stopped = Some Exhausted.Cancelled)

let test_chase_depth_stop_is_silent_verdict () =
  let c = Chase.run ~max_depth:2 example1.instance example1.rules in
  check "stopped on depth" true (resource c.stopped = Some Exhausted.Depth);
  check "stopped iff not saturated" true
    (Option.is_some c.stopped <> c.saturated)

let tc_rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)."

let chain n =
  Instance.of_list
    (List.init n (fun i ->
         Atom.app "E"
           [ Term.cst (Fmt.str "c%d" i); Term.cst (Fmt.str "c%d" (i + 1)) ]))

let test_datalog_rounds_verdict () =
  match Datalog.saturate ~max_rounds:1 (chain 8) tc_rules with
  | Ok _ -> Alcotest.fail "expected a rounds verdict"
  | Error { err; partial; rounds } ->
      check "rounds resource" true (err.Exhausted.resource = Exhausted.Rounds);
      check "partial contains the input" true
        (Instance.subset (chain 8) partial);
      check_int "rounds counted" rounds err.Exhausted.used

let test_datalog_wall_clock_verdict () =
  match
    Datalog.saturate ~budget:(Budget.v ~timeout_s:0.0 ()) (chain 4) tc_rules
  with
  | Ok _ -> Alcotest.fail "expected a wall-clock verdict"
  | Error { err; partial; _ } ->
      check "wall-clock resource" true
        (err.Exhausted.resource = Exhausted.Wall_clock);
      check "partial is the input (no round ran)" true
        (Instance.equal partial (chain 4))

let test_finite_model_unknown () =
  match
    Finite_model.loop_free_model_exists ~fresh:1 ~max_steps:0
      ~e:(Symbol.make "E" 2) example1.instance example1.rules
  with
  | Finite_model.Unknown e ->
      check "steps resource" true (e.Exhausted.resource = Exhausted.Steps)
  | Finite_model.Exists | Finite_model.Absent ->
      Alcotest.fail "0 steps cannot be conclusive"

let test_rewrite_stopped_verdict () =
  let q = Cq.atom_query (Symbol.make "E" 2) in
  let out = Rewrite.rewrite ~max_rounds:0 example1.rules q in
  check "incomplete" false out.complete;
  check "rounds verdict" true
    (resource out.stopped = Some Exhausted.Rounds);
  let out = Rewrite.rewrite ~max_rounds:12 Rulesets.example1_bdd.rules q in
  check "fixpoint reached" true out.complete;
  check "no verdict at fixpoint" true (out.stopped = None)

(* ------------------------------------------------------------------ *)
(* Prefix safety *)

(* Fresh nulls draw globally-unique names, so the second of two
   in-process runs names its nulls differently; levels are compared up
   to that renaming. *)
let same_level = Hom.isomorphic

let is_prefix short long =
  let rec go = function
    | [], _ -> true
    | x :: xs, y :: ys -> same_level x y && go (xs, ys)
    | _ :: _, [] -> false
  in
  go (short, long)

let linear_rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed ->
          Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_range 0 5000))

let prop_chase_budgeted_prefix =
  QCheck.Test.make ~name:"budgeted chase = prefix of unbudgeted chase"
    ~count:30 linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let i = Parser.instance "E(c0,c1), A(c0)" in
      let full = Chase.run ~max_depth:6 ~max_atoms:100000 i rules in
      let cut = Chase.run ~max_depth:3 ~max_atoms:100000 i rules in
      is_prefix cut.levels full.levels
      && Nca_graph.Multiset.Int_multiset.equal
           (Chase.timestamp_multiset cut (Instance.adom cut.instance))
           (Chase.timestamp_multiset full
              (Instance.adom (List.nth full.levels cut.depth)))
      && Term.Map.for_all (fun _ p -> p.Chase.level <= cut.depth)
           cut.provenance)

let prop_datalog_partial_subset =
  QCheck.Test.make
    ~name:"budgeted saturation ⊆ closure, monotone in the budget" ~count:20
    QCheck.(pair (int_range 1 6) (int_range 0 4))
    (fun (n, r) ->
      let i = chain n in
      let closure = Datalog.closure i tc_rules in
      let at rounds =
        match Datalog.saturate ~max_rounds:rounds i tc_rules with
        | Ok total -> total
        | Error { partial; _ } -> partial
      in
      Instance.subset (at r) closure
      && Instance.subset (at r) (at (r + 1))
      && Instance.equal (at 1000) closure)

(* ------------------------------------------------------------------ *)
(* Hom totality (the seed raised Invalid_argument from [pick]) *)

let test_hom_empty_source () =
  let tgt = Parser.instance "E(a,b)" in
  check_int "one empty homomorphism" 1 (Hom.count [] tgt);
  check "exists" true (Hom.exists [] tgt);
  check "all = [empty]" true (Hom.all [] tgt = [ Subst.empty ])

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let with_telemetry f =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable f

let test_disabled_is_empty () =
  check "disabled" false (Telemetry.enabled ());
  Telemetry.count "ghost" 42;
  Telemetry.incr "ghost";
  check_int "span still runs the body" 3 (Telemetry.span "ghost" (fun () -> 3));
  let snap = Telemetry.snapshot () in
  check "no counters" true (snap.Telemetry.counters = []);
  check "no spans" true (snap.Telemetry.spans = [])

let test_span_nesting () =
  with_telemetry @@ fun () ->
  Telemetry.span "outer" (fun () ->
      Telemetry.span "inner" (fun () -> Telemetry.incr "ticks");
      Telemetry.span "inner" (fun () -> Telemetry.incr "ticks"));
  let snap = Telemetry.snapshot () in
  check "counter" true (snap.Telemetry.counters = [ ("ticks", 2) ]);
  match snap.Telemetry.spans with
  | [ outer ] -> (
      check_str "outer name" "outer" outer.Telemetry.span_name;
      check_int "outer calls" 1 outer.Telemetry.calls;
      match outer.Telemetry.children with
      | [ inner ] ->
          check_str "inner name" "inner" inner.Telemetry.span_name;
          check_int "inner accumulates" 2 inner.Telemetry.calls
      | _ -> Alcotest.fail "expected one (accumulated) child span")
  | _ -> Alcotest.fail "expected one top-level span"

(* The --stats-json shape is versioned; this golden pins it ([scrub_times]
   zeroes the only nondeterministic field). *)
let test_stats_json_golden () =
  let json =
    with_telemetry @@ fun () ->
    (* drop memoized plans so the cache counters don't depend on what the
       other tests compiled before this one ran *)
    Nca_plan.Cache.clear ();
    (* likewise the process-wide SAT totals: another test in this binary
       may have run the finite-model engine *)
    Nca_sat.Stats.reset ();
    ignore (Datalog.closure (Parser.instance "E(a,b)") tc_rules);
    Nca_analysis.Obs_report.of_snapshot
      (Telemetry.scrub_times (Telemetry.snapshot ()))
  in
  check_str "stats json shape"
    "{\"schema\":\"nocliques/stats/v6\",\
     \"counters\":{\"datalog.atoms\":0,\"datalog.rounds\":1,\
     \"plan.cache.hit\":1,\"plan.cache.miss\":1,\"plan.exec\":2,\
     \"plan.intersections\":0,\"plan.matches\":0,\"plan.probes\":1},\
     \"plan\":{\"enabled\":true,\"plans\":1,\"cache_hits\":1,\
     \"cache_misses\":1},\
     \"sat\":{\"solves\":0,\"vars\":0,\"clauses\":0,\"learnt\":0,\
     \"decisions\":0,\"conflicts\":0,\"propagations\":0},\
     \"parallel\":{\"jobs\":1,\"batches\":0,\"domains\":[]},\
     \"provenance\":{\"facts\":0,\"store_bytes\":0,\"max_depth\":0},\
     \"histograms\":{},\"memory\":{},\
     \"spans\":[{\"name\":\"datalog.saturate\",\"calls\":1,\"time_us\":0,\
     \"children\":[{\"name\":\"datalog.round\",\"calls\":1,\"time_us\":0,\
     \"children\":[{\"name\":\"plan.compile\",\"calls\":1,\"time_us\":0,\
     \"children\":[]}]}]}]}"
    (Nca_analysis.Json.to_string json);
  match Nca_analysis.Json.parse (Nca_analysis.Json.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("stats json does not parse: " ^ e)

let test_chase_counters_recorded () =
  with_telemetry @@ fun () ->
  let c = Chase.run ~max_depth:3 example1.instance example1.rules in
  let snap = Telemetry.snapshot () in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snap.Telemetry.counters)
  in
  check_int "chase.rounds matches depth" c.Chase.depth
    (counter "chase.rounds");
  check_int "chase.atoms counts the derived atoms"
    (Instance.cardinal c.Chase.instance
    - Instance.cardinal example1.instance)
    (counter "chase.atoms");
  check "triggers were counted" true (counter "chase.triggers" > 0)

(* ------------------------------------------------------------------ *)
(* Profiling layer: event ring, histograms, trace export *)

module Events = Nca_obs.Events
module Metrics = Nca_obs.Metrics
module Trace_export = Nca_obs.Trace_export
module Json = Nca_analysis.Json

let ring_cap = 16

(* Wrap-around overwrites the oldest events: the snapshot holds the
   newest [min n cap] instants in order and counts the rest as drops. *)
let prop_ring_wraparound =
  QCheck.Test.make ~name:"ring wrap-around keeps newest, counts drops exactly"
    ~count:100
    QCheck.(int_range 0 (3 * ring_cap))
    (fun n ->
      Events.enable ~capacity:ring_cap ();
      let lbl = Events.label "test.ring" in
      for i = 0 to n - 1 do
        Events.instant ~arg:i lbl
      done;
      let snap = Events.snapshot () in
      Events.disable ();
      let kept = min n ring_cap in
      snap.Events.dropped = max 0 (n - ring_cap)
      && List.length snap.Events.events = kept
      && List.for_all2
           (fun (e : Events.event) i ->
             e.arg = i && e.label = lbl && e.phase = Events.Instant)
           snap.Events.events
           (List.init kept (fun i -> n - kept + i)))

(* A log₂ histogram's percentile is exact up to bucket resolution: it
   must land in the same bucket as the true rank-order statistic of the
   observations, and count/sum/max are exact. *)
let prop_histo_oracle =
  QCheck.Test.make
    ~name:"histogram matches sorted-list oracle up to bucket resolution"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 1_000_000))
    (fun vs ->
      let h = Metrics.Histo.create () in
      List.iter (Metrics.Histo.observe h) vs;
      let sorted = List.sort compare vs in
      let n = List.length vs in
      let oracle p =
        let rank = ((p * n) + 99) / 100 in
        List.nth sorted (max 0 (rank - 1))
      in
      Metrics.Histo.count h = n
      && Metrics.Histo.sum h = List.fold_left ( + ) 0 vs
      && Metrics.Histo.max_value h = List.fold_left max 0 vs
      && List.for_all
           (fun p ->
             let reported = Metrics.Histo.percentile h p in
             Metrics.Histo.bucket_of reported
             = Metrics.Histo.bucket_of (oracle p)
             && reported >= oracle p
             && reported <= Metrics.Histo.max_value h)
           [ 50; 90; 99; 100 ])

let assoc name fields = List.assoc_opt name fields

let test_chrome_trace_shape () =
  Events.enable ~capacity:64 ();
  let l_span = Events.label "test.span"
  and l_mark = Events.label "test.mark" in
  Events.enter l_span;
  Events.instant ~arg:7 l_mark;
  Events.leave l_span;
  let snap = Events.snapshot () in
  Events.disable ();
  match Json.parse (Trace_export.chrome_json snap) with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok (Json.Obj fields) ->
      check "droppedEvents = 0" true
        (assoc "droppedEvents" fields = Some (Json.Int 0));
      let events =
        match assoc "traceEvents" fields with
        | Some (Json.List es) -> es
        | _ -> Alcotest.fail "no traceEvents array"
      in
      check_int "three events" 3 (List.length events);
      let phases =
        List.map
          (function
            | Json.Obj f ->
                check "has a name" true
                  (match assoc "name" f with
                  | Some (Json.String _) -> true
                  | _ -> false);
                check "pid = 1" true (assoc "pid" f = Some (Json.Int 1));
                check "tid = 0" true (assoc "tid" f = Some (Json.Int 0));
                check "has ts" true
                  (match assoc "ts" f with
                  | Some (Json.Int _) -> true
                  | _ -> false);
                (match assoc "ph" f with
                | Some (Json.String p) -> p
                | _ -> Alcotest.fail "no ph")
            | _ -> Alcotest.fail "event is not an object")
          events
      in
      check "phases are B, i, E" true (phases = [ "B"; "i"; "E" ])
  | Ok _ -> Alcotest.fail "trace JSON is not an object"

(* ------------------------------------------------------------------ *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_chase_budgeted_prefix;
      prop_datalog_partial_subset;
      prop_ring_wraparound;
      prop_histo_oracle;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "obs"
    [
      ( "budget",
        [
          tc "unlimited passes" `Quick test_unlimited_passes_everything;
          tc "checkpoint directions" `Quick test_checkpoint_directions;
          tc "intersect tighter" `Quick test_intersect_takes_tighter;
          tc "wall-clock verdict" `Quick test_wall_clock_verdict;
          tc "cancel verdict" `Quick test_cancel_verdict;
        ] );
      ( "verdicts",
        [
          tc "chase wall clock" `Quick test_chase_wall_clock_stop;
          tc "chase cancel" `Quick test_chase_cancel_stop;
          tc "chase depth" `Quick test_chase_depth_stop_is_silent_verdict;
          tc "datalog rounds" `Quick test_datalog_rounds_verdict;
          tc "datalog wall clock" `Quick test_datalog_wall_clock_verdict;
          tc "finite-model unknown" `Quick test_finite_model_unknown;
          tc "rewrite stopped" `Quick test_rewrite_stopped_verdict;
        ] );
      ("prefix", props);
      ("hom", [ tc "empty source" `Quick test_hom_empty_source ]);
      ( "telemetry",
        [
          tc "disabled no-op" `Quick test_disabled_is_empty;
          tc "span nesting" `Quick test_span_nesting;
          tc "stats json golden" `Quick test_stats_json_golden;
          tc "chase counters" `Quick test_chase_counters_recorded;
        ] );
      ( "profiling",
        [
          tc "chrome trace shape" `Quick test_chrome_trace_shape;
        ] );
    ]
