(* Sequential-engine suite: the single-domain substrate every engine
   runs on, and the determinism the engines promise on top of it.

   - interning: the name table (a [Hashtbl] plus a doubling array), the
     atom hash-cons table and the symbol table hand out dense,
     allocation-ordered ids and keep every binding as they grow;
   - posting caches: an instance memoises its posting arrays in mutable
     fields, and [add]/[remove] must never let a derived instance see or
     overwrite the caches of the one it came from;
   - observability: plain module-level stores, a single trace track,
     spans that close on exceptions, samplers read at sample time;
   - determinism: in-process reruns of the chase agree up to the
     renaming of nulls, and the semi-naive Datalog closure is the naive
     least fixpoint. *)

open Nca_logic
module Chase = Nca_chase.Chase
module Datalog = Nca_chase.Datalog
module Rulesets = Nca_core.Rulesets
module Termination = Nca_analysis.Termination
module Json = Nca_analysis.Json
module Events = Nca_obs.Events
module Metrics = Nca_obs.Metrics
module Telemetry = Nca_obs.Telemetry
module Trace_export = Nca_obs.Trace_export

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Interning *)

let test_names_grow_dense () =
  let base = Names.count () in
  let n = 3000 in
  let ids =
    List.init n (fun k -> Names.intern (Printf.sprintf "seq!grow%d" k))
  in
  check "ids are consecutive from the old count" true
    (ids = List.init n (fun k -> base + k));
  check_int "count grew by the new names" (base + n) (Names.count ());
  List.iteri
    (fun k id ->
      Alcotest.(check string)
        "name resolves after growth" (Printf.sprintf "seq!grow%d" k)
        (Names.name id))
    ids;
  check "re-interning allocates nothing" true
    (List.for_all2
       (fun k id -> Names.intern (Printf.sprintf "seq!grow%d" k) = id)
       (List.init n Fun.id) ids);
  check_int "count unchanged by re-interning" (base + n) (Names.count ())

let test_names_unknown_id () =
  let rejects id =
    match Names.name id with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "negative id" true (rejects (-1));
  check "id past the count" true (rejects (Names.count ()))

let test_names_live_bytes () =
  let before = Names.live_bytes () in
  ignore (Names.intern "seq!live-bytes" : int);
  check_int "a new name adds its length" (before + 14) (Names.live_bytes ());
  ignore (Names.intern "seq!live-bytes" : int);
  check_int "a known name adds nothing" (before + 14) (Names.live_bytes ())

let test_names_compare_by_string () =
  let zz = Names.intern "seq!zz" in
  let aa = Names.intern "seq!aa" in
  check "ids in allocation order" true (zz < aa);
  check "compare_names follows the strings" true
    (Names.compare_names aa zz < 0);
  check_int "equal ids compare equal" 0 (Names.compare_names aa aa)

let test_atom_single_table () =
  ignore (Atom.app "SeqT!" [ Term.cst "seq!t" ] : Atom.t);
  match Atom.shard_stats () with
  | [ (bindings, depth) ] ->
      check_int "every atom is one binding" (Atom.count ()) bindings;
      check "non-empty buckets" true (depth >= 1)
  | l -> Alcotest.failf "expected one table, got %d entries" (List.length l)

let test_atom_ids_allocation_ordered () =
  let base = Atom.count () in
  let mk k = Atom.app "SeqA!" [ Term.cst (Printf.sprintf "seq!a%d" k) ] in
  let atoms = List.init 100 mk in
  check "ids are consecutive from the old count" true
    (List.map Atom.id atoms = List.init 100 (fun k -> base + k));
  check "remaking returns the shared atom" true
    (List.for_all2 ( == ) atoms (List.init 100 mk));
  check_int "count grew by the new atoms" (base + 100) (Atom.count ())

let test_symbol_count () =
  let base = Symbol.count () in
  let s1 = Symbol.make "SeqS!" 1 in
  let s1' = Symbol.make "SeqS!" 1 in
  let s2 = Symbol.make "SeqS!" 2 in
  check "same name and arity is one symbol" true (Symbol.equal s1 s1');
  check "arity separates symbols" false (Symbol.equal s1 s2);
  check_int "two new symbols" (base + 2) (Symbol.count ())

(* ------------------------------------------------------------------ *)
(* Posting caches *)

let r = Symbol.make "SeqR!" 2
let c k = Term.cst (Printf.sprintf "seq!c%d" k)
let ra x y = Atom.make r [ x; y ]

let test_add_keeps_parent_cache () =
  let i = Instance.of_list [ ra (c 0) (c 1); ra (c 0) (c 2) ] in
  let before = Instance.pred_array r i in
  let post = Instance.posting r 0 (c 0) i in
  let i' = Instance.add (ra (c 0) (c 3)) i in
  check_int "child sees the new atom" 3
    (Array.length (Instance.pred_array r i'));
  check_int "child posting sees the new atom" 3
    (Array.length (Instance.posting r 0 (c 0) i'));
  check "parent pred_array unchanged" true (Instance.pred_array r i == before);
  check "parent posting unchanged" true (Instance.posting r 0 (c 0) i == post);
  check_int "parent still has two atoms" 2
    (Array.length (Instance.pred_array r i))

let test_remove_keeps_parent_cache () =
  let i = Instance.of_list [ ra (c 0) (c 1); ra (c 0) (c 2) ] in
  let post = Instance.posting r 0 (c 0) i in
  let i' = Instance.remove (ra (c 0) (c 1)) i in
  check "child posting drops the atom" true
    (Array.to_list (Instance.posting r 0 (c 0) i') = [ ra (c 0) (c 2) ]);
  check "parent posting unchanged" true (Instance.posting r 0 (c 0) i == post);
  check_int "parent posting still has two atoms" 2
    (Array.length (Instance.posting r 0 (c 0) i))

let test_posting_memoised () =
  let i = Instance.of_list [ ra (c 4) (c 5); ra (c 6) (c 5) ] in
  let p1 = Instance.posting r 1 (c 5) i in
  check "second lookup is the cached array" true
    (Instance.posting r 1 (c 5) i == p1);
  check "id-sorted" true
    (Array.to_list p1
    = List.sort
        (fun a b -> compare (Atom.id a) (Atom.id b))
        (Array.to_list p1));
  check_int "absent predicate is empty" 0
    (Array.length (Instance.pred_array (Symbol.make "SeqNone!" 1) i))

(* ------------------------------------------------------------------ *)
(* Observability stores *)

let traced_chase () =
  Events.enable ~capacity:4096 ();
  ignore (Chase.run ~max_depth:3 Rulesets.example1.instance
            Rulesets.example1.rules : Chase.t);
  let snap = Events.snapshot () in
  Events.disable ();
  snap

let test_trace_single_track () =
  let snap = traced_chase () in
  check "events recorded" true (snap.Events.events <> []);
  check_int "nothing dropped" 0 snap.Events.dropped;
  match Json.parse (Trace_export.chrome_json snap) with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.List es) ->
          check "every event on track 0" true
            (List.for_all
               (function
                 | Json.Obj f -> List.assoc_opt "tid" f = Some (Json.Int 0)
                 | _ -> false)
               es)
      | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "trace JSON is not an object"
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e

let test_trace_balanced () =
  let snap = traced_chase () in
  let depth =
    List.fold_left
      (fun d (e : Events.event) ->
        match e.phase with
        | Events.Begin -> d + 1
        | Events.End ->
            if d = 0 then Alcotest.fail "End before its Begin";
            d - 1
        | Events.Instant -> d)
      0 snap.Events.events
  in
  check_int "every Begin has its End" 0 depth

let test_sampler_gauge () =
  Metrics.enable ();
  Metrics.register_sampler "seq.probe" (fun () -> 42);
  Metrics.sample_memory ();
  Metrics.register_sampler "seq.probe" (fun () -> 7);
  Metrics.sample_memory ();
  let snap = Metrics.snapshot () in
  Metrics.disable ();
  check "re-registered probe: last 7, max 42" true
    (List.assoc_opt "seq.probe" snap.Metrics.gauges = Some (7, 42))

let test_span_closes_on_exception () =
  Telemetry.enable ();
  (try Telemetry.span "seq.outer" (fun () -> failwith "boom")
   with Failure _ -> ());
  Telemetry.span "seq.next" (fun () -> ());
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  check "the next span is top-level" true
    (List.map
       (fun (s : Telemetry.span_stats) -> (s.span_name, s.calls, s.children))
       snap.Telemetry.spans
    = [ ("seq.outer", 1, []); ("seq.next", 1, []) ])

(* ------------------------------------------------------------------ *)
(* Determinism *)

(* In one process the global null counter keeps running, so a rerun of
   the same chase shifts every null id: compare modulo the
   order-preserving renaming of nulls — sort structurally, rename nulls
   by first occurrence, compare atom lists. *)
let renamer () =
  let tbl = Hashtbl.create 16 in
  fun t ->
    if Term.is_null t then (
      match Hashtbl.find_opt tbl t with
      | Some c -> c
      | None ->
          let c = Term.cst (Printf.sprintf "!n%d" (Hashtbl.length tbl)) in
          Hashtbl.add tbl t c;
          c)
    else t

let canon rename inst =
  List.map (Atom.map rename)
    (List.sort Atom.compare_structural (Instance.atoms inst))

let chase_equal (a : Chase.t) (b : Chase.t) =
  let ra = renamer () and rb = renamer () in
  a.depth = b.depth
  && a.saturated = b.saturated
  && List.length a.levels = List.length b.levels
  && List.for_all2
       (fun x y -> List.equal Atom.equal (canon ra x) (canon rb y))
       a.levels b.levels
  && List.equal Atom.equal (canon ra a.instance) (canon rb b.instance)
  && Term.Set.cardinal (Chase.invented a)
     = Term.Set.cardinal (Chase.invented b)

(* Trigger enumeration iterates instances in hash-cons id order, so the
   first run, which interns the constant-only atoms the chase derives,
   can enumerate a round delta in a different order than a rerun that
   finds them at old ids. After one throwaway run every such atom is
   pinned and reruns agree up to the null shift. *)
let rerun_agrees run =
  ignore (run () : Chase.t);
  let a = run () in
  chase_equal a (run ())

let rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed -> Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_range 0 10000))

let prop_chase_rerun =
  QCheck.Test.make ~name:"chase reruns agree up to null renaming" ~count:15
    rules_arb (fun rules ->
      let i = Parser.instance "E(c0,c1), A(c0), B(c1)" in
      rerun_agrees (fun () -> Chase.run ~max_depth:3 i rules))

let test_chase_rerun_seeded () =
  for rep = 0 to 49 do
    let rules =
      Rulesets.random_forward_existential_rules ~seed:(1000 + rep) ~rules:4
    in
    let i = Parser.instance "E(c0,c1), A(c0)" in
    if not (rerun_agrees (fun () -> Chase.run ~max_depth:3 i rules)) then
      Alcotest.failf "rep %d (seed=%d): chase rerun diverged" rep (1000 + rep)
  done

let edge_pairs_arb =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 12)
        (pair (int_range 0 4) (int_range 0 4)))

let closure_rules =
  Parser.parse_rules
    {| tc: E(x,y), E(y,z) -> E(x,z).
       sym: E(x,y) -> E(y,x).
       mark: E(x,y) -> A(x). |}

let k n = Term.cst (Printf.sprintf "c%d" n)
let edge (x, y) = Atom.app "E" [ k x; k y ]

(* The closure of [closure_rules], computed directly on int pairs. *)
let naive_closure pairs =
  let rec fix s =
    let step =
      List.concat_map
        (fun (x, y) ->
          (y, x)
          :: List.filter_map
               (fun (y', z) -> if y = y' then Some (x, z) else None)
               s)
        s
    in
    let s' = List.sort_uniq compare (s @ step) in
    if List.length s' = List.length s then s else fix s'
  in
  let edges = fix (List.sort_uniq compare pairs) in
  let sources = List.sort_uniq compare (List.map fst edges) in
  Instance.of_list
    (List.map edge edges @ List.map (fun x -> Atom.app "A" [ k x ]) sources)

let prop_closure_naive =
  QCheck.Test.make ~name:"datalog closure = naive least fixpoint" ~count:30
    edge_pairs_arb (fun pairs ->
      let i = Instance.of_list (List.map edge pairs) in
      Instance.equal (Datalog.closure i closure_rules) (naive_closure pairs))

let test_termination_repeatable () =
  List.iter
    (fun (e : Rulesets.entry) ->
      let verdict () =
        Fmt.str "%a" Termination.pp (Termination.classify e.rules)
      in
      Alcotest.(check string)
        (e.name ^ ": same verdict twice")
        (verdict ()) (verdict ()))
    [ Rulesets.example1; Rulesets.example1_bdd ]

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_chase_rerun; prop_closure_naive ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "seq"
    [
      ( "interning",
        [
          tc "names grow dense" test_names_grow_dense;
          tc "unknown name id" test_names_unknown_id;
          tc "live bytes" test_names_live_bytes;
          tc "names compare by string" test_names_compare_by_string;
          tc "one atom table" test_atom_single_table;
          tc "atom ids allocation-ordered" test_atom_ids_allocation_ordered;
          tc "symbol count" test_symbol_count;
        ] );
      ( "posting caches",
        [
          tc "add keeps parent cache" test_add_keeps_parent_cache;
          tc "remove keeps parent cache" test_remove_keeps_parent_cache;
          tc "posting memoised" test_posting_memoised;
        ] );
      ( "observability",
        [
          tc "one trace track" test_trace_single_track;
          tc "balanced trace" test_trace_balanced;
          tc "sampler gauge" test_sampler_gauge;
          tc "span closes on exception" test_span_closes_on_exception;
        ] );
      ( "determinism",
        props
        @ [
            tc "50 seeded chase reruns" test_chase_rerun_seeded;
            tc "termination repeatable" test_termination_repeatable;
          ] );
    ]
