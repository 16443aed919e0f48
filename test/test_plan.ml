(* The compiled homomorphism engine against the test oracles.

   Four families of guarantees:
   - the sorted posting arrays the leapfrog merge runs on are exactly the
     positional index, in ascending atom-id order (Instance invariant);
   - [Hom] agrees with the interpreted oracle search: same match sets on
     random bodies/instances (plain, injective, seeded with an initial
     binding), and for bodies of at most two atoms the very same
     enumeration order — the property the byte-identity goldens lean on;
   - the query layer on top of it (Cq, Ucq, isomorphism) answers as the
     same functions run on the oracle search;
   - the engines built on it (Trigger.all_delta, Datalog, Chase) agree
     with the oracle and the seed engines, including under budgets: the
     same closures, the same chase results up to null names. *)

open Nca_logic
module Rulesets = Nca_core.Rulesets
module Trigger = Nca_chase.Trigger
module Chase = Nca_chase.Chase
module Datalog = Nca_chase.Datalog
module Oracle = Nca_oracle.Hom
module Naive = Nca_oracle.Naive

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let e2 = Symbol.make "E" 2
let a1 = Symbol.make "A" 1
let b1 = Symbol.make "B" 1
let sign = Symbol.Set.of_list [ e2; a1; b1 ]

(* canonical form of a match: the bindings as (code, code) pairs in key
   order — total, and independent of the map's internal shape *)
let sub_key s =
  List.map (fun (x, t) -> (Term.code x, Term.code t)) (Subst.bindings s)

let keys subs = List.map sub_key subs
let norm subs = List.sort compare (keys subs)

(* ------------------------------------------------------------------ *)
(* Generators *)

let inst_gen =
  QCheck.Gen.(
    map
      (fun seed -> Rulesets.random_instance ~seed ~constants:4 ~atoms:8 sign)
      (int_range 0 10000))

let term_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Term.var (Fmt.str "v%d" (abs i mod 4))) int;
        map (fun i -> Term.cst (Fmt.str "c%d" (abs i mod 4))) int;
      ])

let atom_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun p ->
    match p with
    | 0 | 1 -> map2 (fun s t -> Atom.make e2 [ s; t ]) term_gen term_gen
    | 2 -> map (fun t -> Atom.make a1 [ t ]) term_gen
    | _ -> map (fun t -> Atom.make b1 [ t ]) term_gen)

let body_gen = QCheck.Gen.(list_size (int_range 1 4) atom_gen)

let search_arb = QCheck.make QCheck.Gen.(pair body_gen inst_gen)

let rules_sym_tc =
  Parser.parse_rules "sym: E(x,y) -> E(y,x). tc: E(x,y), E(y,z) -> E(x,z)."

(* ------------------------------------------------------------------ *)
(* Posting-array invariants *)

let args_at a i = List.nth (Atom.args a) i

let sorted_by_id arr =
  let ok = ref true in
  Array.iteri
    (fun j b -> if j > 0 then ok := !ok && Atom.id arr.(j - 1) < Atom.id b)
    arr;
  !ok

let prop_posting_invariant =
  QCheck.Test.make ~name:"posting arrays = positional index, id-sorted"
    ~count:100 (QCheck.make inst_gen) (fun inst ->
      (* exercise the per-record caches: a shrunk copy must rebuild its
         own arrays, not see the original's *)
      let shrunk =
        match Instance.atoms inst with
        | a :: _ -> Instance.remove a inst
        | [] -> inst
      in
      List.for_all
        (fun inst ->
          List.for_all
            (fun a ->
              let p = Atom.pred a in
              let parr = Instance.pred_array p inst in
              sorted_by_id parr
              && Array.to_list parr = Instance.with_pred p inst
              && List.for_all
                   (fun i ->
                     let t = args_at a i in
                     let arr = Instance.posting p i t inst in
                     sorted_by_id arr
                     && Instance.pos_cardinal p i t inst = Array.length arr
                     && Array.to_list arr
                        = List.filter
                            (fun b -> Term.equal (args_at b i) t)
                            (Instance.with_pred p inst))
                   (List.init (Symbol.arity p) Fun.id))
            (Instance.atoms inst))
        [ inst; shrunk ])

(* ------------------------------------------------------------------ *)
(* Differential: Hom vs the interpreted oracle *)

let init01 =
  Subst.add (Term.var "v0") (Term.cst "c0") Subst.empty

let prop_same_matches =
  QCheck.Test.make ~name:"compiled ≡ interpreted: match sets" ~count:300
    search_arb (fun (body, inst) ->
      norm (Hom.all body inst) = norm (Oracle.all body inst))

let prop_same_matches_inj =
  QCheck.Test.make ~name:"compiled ≡ interpreted: injective match sets"
    ~count:300 search_arb (fun (body, inst) ->
      norm (Hom.all ~inj:true body inst)
      = norm (Oracle.all ~inj:true body inst))

(* Seeded and unseeded runs on the same body: the plan's schedules are
   memoised per set of entry-bound slots, so neither may reuse the
   other's. *)
let prop_same_matches_init =
  QCheck.Test.make ~name:"compiled ≡ interpreted: seeded match sets"
    ~count:300 search_arb (fun (body, inst) ->
      norm (Hom.all ~init:init01 body inst)
      = norm (Oracle.all ~init:init01 body inst)
      && norm (Hom.all ~inj:true ~init:init01 body inst)
         = norm (Oracle.all ~inj:true ~init:init01 body inst)
      && norm (Hom.all body inst) = norm (Oracle.all body inst))

let prop_same_order_small =
  QCheck.Test.make
    ~name:"compiled ≡ interpreted: enumeration order (≤ 2-atom bodies)"
    ~count:300
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 1 2) atom_gen) inst_gen))
    (fun (body, inst) ->
      keys (Hom.all body inst) = keys (Oracle.all body inst)
      && keys (Hom.all ~inj:true body inst)
         = keys (Oracle.all ~inj:true body inst))

let test_empty_body () =
  let tgt = Parser.instance "E(a,b)" in
  check_int "one empty match" 1 (Hom.count [] tgt);
  check "exists" true (Hom.exists [] tgt);
  check "all = [empty]" true (Hom.all [] tgt = [ Subst.empty ])

(* ------------------------------------------------------------------ *)
(* The query layer vs the same functions on the oracle search *)

let vars_of body = Term.sorted_elements (Atom.vars_of_list body)

(* A CQ over a random body: up to two answer positions drawn (with
   repetition) from the body's variables, plus a candidate tuple of
   constants of the same length. *)
let cq_gen =
  QCheck.Gen.(
    body_gen >>= fun body ->
    match vars_of body with
    | [] -> return (Cq.boolean body, [])
    | vs ->
        list_size (int_range 0 2) (oneofl vs) >>= fun answer ->
        list_repeat (List.length answer)
          (map (fun i -> Term.cst (Fmt.str "c%d" i)) (int_range 0 3))
        >|= fun tuple -> (Cq.make ~answer body, tuple))

let pp_cq (q, tuple) =
  Fmt.str "%a @@ (%a)" Cq.pp q Fmt.(list ~sep:comma Term.pp) tuple

let query_arb =
  QCheck.make ~print:(fun (q, _) -> pp_cq q) QCheck.Gen.(pair cq_gen inst_gen)

(* [Cq.align], restated independently: bind each answer variable to the
   tuple's term, failing on a conflict or a length mismatch. *)
let ref_align q tuple =
  if List.length tuple <> List.length (Cq.answer q) then None
  else
    List.fold_left2
      (fun acc x t ->
        Option.bind acc (fun s ->
            match Subst.find_opt x s with
            | None -> Some (Subst.add x t s)
            | Some u -> if Term.equal u t then Some s else None))
      (Some Subst.empty) (Cq.answer q) tuple

let oracle_find ?tuple ~inj i q =
  match tuple with
  | None -> Oracle.find ~inj (Cq.body q) i
  | Some t ->
      Option.bind (ref_align q t) (fun init ->
          Oracle.find ~inj ~init (Cq.body q) i)

let oracle_answers i q =
  List.sort_uniq compare
    (List.map
       (fun s -> List.map (fun x -> Term.code (Subst.apply s x)) (Cq.answer q))
       (Oracle.all (Cq.body q) i))

let prop_cq_agrees =
  QCheck.Test.make ~name:"Cq.holds/holds_inj/answers ≡ oracle" ~count:300
    query_arb (fun ((q, tuple), inst) ->
      let same ?tuple ~inj () =
        (if inj then Cq.holds_inj ?tuple inst q else Cq.holds ?tuple inst q)
        = Option.is_some (oracle_find ?tuple ~inj inst q)
      in
      same ~inj:false () && same ~inj:true ()
      && same ~tuple ~inj:false () && same ~tuple ~inj:true ()
      && List.sort_uniq compare
           (List.map (List.map Term.code) (Cq.answers inst q))
         = oracle_answers inst q)

let prop_subsumes_agrees =
  QCheck.Test.make ~name:"Cq.subsumes ≡ oracle" ~count:300
    (QCheck.make QCheck.Gen.(pair cq_gen cq_gen))
    (fun ((q, _), (q', _)) ->
      let oracle =
        match ref_align q (Cq.answer q') with
        | None -> false
        | Some init ->
            Oracle.exists ~init (Cq.body q) (Instance.of_list (Cq.body q'))
      in
      Cq.subsumes q q' = oracle && Cq.subsumes q' q' && Cq.subsumes q q)

(* [Ucq.witness] reports the first disjunct that holds, so the disjunct is
   engine-independent; its homomorphism must be a genuine one. *)
let prop_ucq_witness_agrees =
  QCheck.Test.make ~name:"Ucq.witness ≡ oracle" ~count:200
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 3) body_gen) inst_gen))
    (fun (bodies, inst) ->
      let u = Ucq.make (List.map Cq.boolean bodies) in
      List.for_all
        (fun inj ->
          let first =
            List.find_opt
              (fun q -> Option.is_some (oracle_find ~inj inst q))
              (Ucq.disjuncts u)
          in
          match (Ucq.witness ~inj inst u, first) with
          | None, None -> true
          | Some (q, h), Some q' ->
              Cq.compare q q' = 0
              && List.for_all
                   (fun a -> Instance.mem a inst)
                   (Subst.apply_atoms h (Cq.body q))
          | _ -> false)
        [ false; true ])

let prop_isomorphic_agrees =
  QCheck.Test.make ~name:"Hom.isomorphic ≡ oracle" ~count:200
    (QCheck.make QCheck.Gen.(pair inst_gen inst_gen))
    (fun (i1, i2) ->
      let g1 = Instance.generalize i1 and g2 = Instance.generalize i2 in
      let r1, _ = Instance.rename_apart ~avoid:Term.Set.empty g1 in
      Hom.isomorphic g1 g2 = Oracle.isomorphic g1 g2
      && Hom.isomorphic g1 r1 && Oracle.isomorphic g1 r1)

(* ------------------------------------------------------------------ *)
(* Engines built on Hom vs the oracle and the seed engines *)

let split_delta inst =
  let _, delta =
    Instance.fold
      (fun a (i, acc) -> (i + 1, if i mod 2 = 0 then Instance.add a acc else acc))
      inst (0, Instance.empty)
  in
  delta

let prop_all_delta_agree =
  QCheck.Test.make ~name:"Trigger.all_delta: compiled ≡ interpreted"
    ~count:100 (QCheck.make inst_gen) (fun total ->
      let delta = split_delta total in
      let oracle =
        List.concat_map
          (fun (rule, goals) ->
            let acc = ref [] in
            Oracle.iter_targets goals (fun hom ->
                acc := Trigger.key { Trigger.rule; hom } :: !acc);
            !acc)
          (Trigger.delta_tasks rules_sym_tc ~total ~delta)
      in
      let sort = List.sort Trigger.Key.compare in
      List.equal Trigger.Key.equal
        (sort
           (List.map Trigger.key (Trigger.all_delta rules_sym_tc ~total ~delta)))
        (sort oracle))

let prop_datalog_agree =
  QCheck.Test.make ~name:"Datalog closure ≡ seed semi-naive" ~count:50
    (QCheck.make inst_gen) (fun inst ->
      Instance.equal
        (Datalog.closure inst rules_sym_tc)
        (Naive.datalog_saturate inst rules_sym_tc))

let linear_rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed -> Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_range 0 5000))

(* Null numbering within one run is deterministic (trigger order), but the
   fresh-null counter is global, so two runs in one process disagree on the
   labels. Renumbering each instance's nulls from 0 in creation order makes
   runs with identical trigger sequences — which the single-atom-body rules
   of [linear_rules_arb] guarantee even across engines — structurally
   EQUAL, a far stronger check than isomorphism (and linear, where
   isomorphism search on null forests blows up). *)
let canon inst =
  let nulls =
    List.sort Int.compare
      (List.filter_map
         (function Term.Null n -> Some n | _ -> None)
         (Term.Set.elements (Instance.adom inst)))
  in
  let tbl = Hashtbl.create 16 in
  List.iteri (fun k n -> Hashtbl.add tbl n k) nulls;
  Instance.map_terms
    (function Term.Null n -> Term.Null (Hashtbl.find tbl n) | t -> t)
    inst

let chase_start = Parser.instance "E(c0,c1), A(c0)"

(* The engine's chase against the seed oblivious chase, both cut at
   [depth]: the same verdict, level count and instance up to null names. *)
let same_as_seed rules depth =
  let c = Chase.run ~max_depth:depth ~max_atoms:2000 chase_start rules in
  let inst, levels, saturated =
    Naive.chase ~max_depth:depth ~max_atoms:2000 chase_start rules
  in
  c.Chase.saturated = saturated
  && List.length c.Chase.levels = List.length levels
  && Instance.equal (canon c.Chase.instance) (canon inst)

let prop_chase_agree =
  QCheck.Test.make ~name:"chase ≡ seed chase (up to null names)" ~count:50
    linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      same_as_seed rules 4)

let prop_budget_prefix_survives =
  QCheck.Test.make
    ~name:"budgeted chase: seed-equal prefix of the deeper run" ~count:30
    linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let run depth =
        Chase.run ~max_depth:depth ~max_atoms:100000 chase_start rules
      in
      let cut = run 2 and full = run 5 in
      same_as_seed rules 2
      && (cut.Chase.saturated || Option.is_some cut.Chase.stopped)
      && List.length cut.Chase.levels <= List.length full.Chase.levels
      && Instance.subset (canon cut.Chase.instance) (canon full.Chase.instance))

(* ------------------------------------------------------------------ *)
(* Plan shape and cache discipline *)

let tc_body =
  [
    Atom.make e2 [ Term.var "x"; Term.var "y" ];
    Atom.make e2 [ Term.var "y"; Term.var "z" ];
  ]

let test_plan_shape () =
  let plan = Plan.compile tc_body in
  check_int "three slots" 3 (Plan.nslots plan);
  List.iter
    (fun r ->
      let order = Plan.variant plan r in
      check_int "root first" r order.(0);
      check_int "permutation" 2 (Array.length order);
      check "schedule memoised" true
        (Plan.schedule plan r [| true; false; false |]
        == Plan.schedule plan r [| true; false; false |]))
    [ 0; 1 ]

let test_cache_discipline () =
  Cache.clear ();
  let p1 = Cache.find_or_compile tc_body in
  let p2 = Cache.find_or_compile tc_body in
  check "same plan shared" true (p1 == p2);
  let plans, hits, misses = Cache.stats () in
  check_int "one plan" 1 plans;
  check_int "one hit" 1 hits;
  check_int "one miss" 1 misses;
  Cache.clear ();
  check "cleared" true (Cache.stats () = (0, 0, 0))

(* ------------------------------------------------------------------ *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_posting_invariant;
      prop_same_matches;
      prop_same_matches_inj;
      prop_same_matches_init;
      prop_same_order_small;
      prop_cq_agrees;
      prop_subsumes_agrees;
      prop_ucq_witness_agrees;
      prop_isomorphic_agrees;
      prop_all_delta_agree;
      prop_datalog_agree;
      prop_chase_agree;
      prop_budget_prefix_survives;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "plan"
    [
      ( "unit",
        [
          tc "empty body" `Quick test_empty_body;
          tc "plan shape" `Quick test_plan_shape;
          tc "cache discipline" `Quick test_cache_discipline;
        ] );
      ("properties", props);
    ]
