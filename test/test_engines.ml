(* Tests for the evaluation engines: semi-naive Datalog saturation, CQ
   and UCQ containment, and the empirical Theorem-7 (Ramsey) checker. *)

open Nca_logic
module Datalog = Nca_chase.Datalog
module Chase = Nca_chase.Chase
module Ramsey_check = Nca_experiments.Ramsey_check
module Rulesets = Nca_core.Rulesets

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"
let e s t = Atom.app "E" [ s; t ]

(* ------------------------------------------------------------------ *)
(* Datalog saturation *)

let test_datalog_transitive_closure () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let i = Parser.instance "E(a,b), E(b,c), E(c,d)" in
  let closure = Datalog.closure i rules in
  (* 3 base + ac, bd, ad *)
  check_int "full transitive closure" 6 (Instance.cardinal closure);
  check "ad derived" true
    (Instance.mem (Atom.app "E" [ Term.cst "a"; Term.cst "d" ]) closure)

let test_datalog_rejects_existentials () =
  let rules = Parser.parse_rules "s: E(x,y) -> E(y,z)." in
  check "existential rejected" true
    (try
       ignore (Datalog.closure Instance.empty rules);
       false
     with Datalog.Not_datalog _ -> true)

let test_datalog_agrees_with_chase () =
  List.iter
    (fun (rules_src, facts) ->
      let rules = Parser.parse_rules rules_src in
      let i = Parser.instance facts in
      let semi = Datalog.closure i rules in
      let chase = Chase.run ~max_depth:20 i rules in
      check "saturated chase" true chase.saturated;
      check
        (Fmt.str "engines agree on %s" facts)
        true
        (Instance.equal semi chase.instance))
    [
      ("tc: E(x,y), E(y,z) -> E(x,z).", "E(a,b), E(b,c), E(c,a)");
      ("sym: E(x,y) -> E(y,x).", "E(a,b), E(c,d)");
      ("p1: A(x) -> B(x). p2: B(x) -> C(x).", "A(a), A(b)");
      ( "short: E(x,x1), E(y,y1) -> E(x,y1).",
        "E(a,b), E(c,d)" );
    ]

let test_datalog_rounds () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let chain n =
    Instance.of_list
      (List.init n (fun i ->
           Atom.app "E"
             [ Term.cst (Fmt.str "c%d" i); Term.cst (Fmt.str "c%d" (i + 1)) ]))
  in
  (* transitive closure of a chain of 8 needs ~log rounds (semi-naive
     joins deltas with the full relation, so paths double each round) *)
  let rounds = Nca_oracle.Naive.rounds_to_fixpoint (chain 8) rules in
  check "few rounds" true (rounds >= 2 && rounds <= 5);
  check_int "closure size" 36
    (Instance.cardinal (Datalog.closure (chain 8) rules))

(* [saturate ~max_rounds:k] runs at most [k + 1] rounds, the last of
   which must derive nothing; [rounds_to_fixpoint] is the least such [k].
   Short of it, saturation stops after [k + 1] rounds with a partial
   closure that is strict until the last productive round is done. *)
let test_datalog_round_budget () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let i = Parser.instance "E(a,b), E(b,c), E(c,d), E(d,e)" in
  let full = Datalog.closure i rules in
  let r = Nca_oracle.Naive.rounds_to_fixpoint i rules in
  check_int "two productive rounds" 2 r;
  (match Datalog.saturate ~max_rounds:r i rules with
  | Ok c -> check "closure at the least budget" true (Instance.equal c full)
  | Error _ -> Alcotest.fail "expected the fixpoint within its own rounds");
  for k = 0 to r - 1 do
    match Datalog.saturate ~max_rounds:k i rules with
    | Error x ->
        check_int "rounds completed" (k + 1) x.rounds;
        check "partial ⊆ closure" true (Instance.subset x.partial full);
        check "strict before the last productive round" (k + 1 < r)
          (not (Instance.equal x.partial full))
    | Ok _ -> Alcotest.failf "expected exhaustion under max_rounds %d" k
  done;
  check_int "a closed instance needs no productive round" 0
    (Nca_oracle.Naive.rounds_to_fixpoint full rules)

let test_datalog_empty_delta_terminates () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let i = Parser.instance "E(a,b)" in
  check_int "nothing to derive" 1 (Instance.cardinal (Datalog.closure i rules))

let test_datalog_lemma33_decomposition () =
  (* Ch(Ch(R∃), R^DL) computed with the Datalog engine agrees with the
     generic chase on the Datalog part *)
  let entry = Rulesets.example1_bdd in
  let datalog, existential = Rule.split_datalog entry.rules in
  let ex = Chase.run ~max_depth:4 entry.instance existential in
  let via_engine = Datalog.closure ex.instance datalog in
  let via_chase = Chase.run ~max_depth:10 ex.instance datalog in
  check "saturated" true via_chase.saturated;
  check "engines agree on the DL closure" true
    (Instance.equal via_engine via_chase.instance)

(* ------------------------------------------------------------------ *)
(* Containment: [q ⊑ q'] is [Cq.subsumes q' q] (Chandra–Merlin) *)

let test_containment_basic () =
  let edge = Cq.boolean [ e x y ] in
  let path2 = Cq.boolean [ e x y; e y z ] in
  check "path2 ⊑ edge" true (Cq.subsumes edge path2);
  check "edge ⋢ path2" false (Cq.subsumes path2 edge)

let test_containment_with_answers () =
  let q1 = Cq.make ~answer:[ x ] [ e x y ] in
  let q2 = Cq.make ~answer:[ x ] [ e x y; e x z ] in
  check "q2 ⊑ q1" true (Cq.subsumes q1 q2);
  check "equivalent (z-copy redundant)" true (Cq.equivalent q1 q2)

(* Chandra–Merlin's canonical database of [q]: its body with every
   variable frozen to a fresh constant, and the frozen answer tuple. *)
let canonical_database q =
  let freeze, _ =
    List.fold_left
      (fun (s, k) v -> (Subst.add v (Term.cst (Fmt.str "k%d" k)) s, k + 1))
      (Subst.empty, 0)
      (Term.sorted_elements (Cq.vars q))
  in
  ( Instance.of_list (Subst.apply_atoms freeze (Cq.body q)),
    List.map (Subst.apply freeze) (Cq.answer q) )

let test_canonical_database () =
  let q = Cq.make ~answer:[ x ] [ e x y ] in
  let db, tuple = canonical_database q in
  check_int "frozen body" 1 (Instance.cardinal db);
  check "frozen answers are constants" true (List.for_all Term.is_cst tuple);
  (* q' subsumes q iff q' holds on q's canonical database at its tuple *)
  let q' = Cq.rename_apart q in
  check "holds on canonical db" true (Cq.holds ~tuple db q');
  check "and subsumes" true (Cq.subsumes q' q);
  let q2 = Cq.make ~answer:[ x ] [ e y x ] in
  check "reversed edge fails on it" false (Cq.holds ~tuple db q2);
  check "and does not subsume" false (Cq.subsumes q2 q)

let test_ucq_containment () =
  let u1 = Ucq.make [ Cq.boolean [ e x x ] ] in
  let u2 = Ucq.make [ Cq.boolean [ e x y ] ] in
  let db, _ = canonical_database (Cq.boolean [ e x x ]) in
  check "loop ⊑ edge (edge holds on the frozen loop)" true (Ucq.holds db u2);
  check "loop ≢ edge" false (Ucq.equivalent u1 u2);
  let u3 = Ucq.make [ Cq.boolean [ e x y ]; Cq.boolean [ e x x ] ] in
  check "u3 ≡ u2" true (Ucq.equivalent u3 u2);
  check "u2 ≡ u3" true (Ucq.equivalent u2 u3)

let test_ucq_cover () =
  let u =
    Ucq.make
      [
        Cq.boolean [ e x y; e x z ];
        (* subsumed by the first: it maps onto the loop *)
        Cq.boolean [ e x x ];
      ]
  in
  let c = Ucq.cover u in
  check_int "single disjunct" 1 (Ucq.size c);
  check "equivalent" true (Ucq.equivalent c u);
  (* a loop and a unary atom share no predicate: neither subsumes the
     other *)
  let incomparable =
    Ucq.make [ Cq.boolean [ e x x ]; Cq.boolean [ Atom.app "A" [ x ] ] ]
  in
  check_int "incomparable disjuncts kept" 2
    (Ucq.size (Ucq.cover incomparable))

(* ------------------------------------------------------------------ *)
(* Empirical Theorem 7 *)

let test_random_tournament_is_tournament () =
  let g = Ramsey_check.random_tournament ~seed:5 ~size:7 in
  check_int "7 vertices" 7 (Nca_graph.Digraph.Term_graph.num_vertices g);
  check_int "binomial edges" 21 (Nca_graph.Digraph.Term_graph.num_edges g);
  check "is a tournament" true
    (Nca_graph.Tournament.is_tournament
       (Nca_graph.Digraph.Term_graph.vertices g)
       g)

let test_random_coloring_covers_edges () =
  let g = Ramsey_check.random_tournament ~seed:5 ~size:6 in
  let colored = Ramsey_check.random_coloring ~seed:11 ~colors:2 g in
  check_int "every edge colored" 15 (List.length colored);
  check "colors in range" true
    (List.for_all (fun (_, c) -> c = 0 || c = 1) colored)

let test_theorem7_two_colors () =
  (* any 2-coloring of a 6-tournament has a monochromatic 3-tournament *)
  check "Theorem 7 at R(3,3)=6" true
    (Ramsey_check.check_theorem7 ~seed:0 ~colors:2 ~target:3 ~trials:25)

let test_theorem7_below_threshold_can_fail () =
  (* below the Ramsey number a coloring avoiding the target exists; the
     classical witness is the 2-colored K5 — find a failing coloring *)
  let rec exists_failure seed =
    if seed > 500 then false
    else
      let t = Ramsey_check.random_tournament ~seed ~size:5 in
      let colored = Ramsey_check.random_coloring ~seed:(seed * 31) ~colors:2 t in
      match Ramsey_check.monochromatic_tournament colored ~size:3 with
      | None -> true
      | Some _ -> exists_failure (seed + 1)
  in
  check "size 5 admits a mono-free coloring" true (exists_failure 0)

let test_monochromatic_extraction () =
  let g = Ramsey_check.random_tournament ~seed:1 ~size:6 in
  let colored = List.map (fun e -> (e, 0)) (Nca_graph.Digraph.Term_graph.edges g) in
  (* everything one color: the whole tournament is monochromatic *)
  match Ramsey_check.monochromatic_tournament colored ~size:6 with
  | Some (0, t) -> check_int "all six" 6 (List.length t)
  | _ -> Alcotest.fail "expected the full tournament in color 0"

(* ------------------------------------------------------------------ *)
(* qcheck *)

let cq_gen =
  QCheck.Gen.(
    let term = map (fun i -> Term.var (Printf.sprintf "v%d" (abs i mod 4))) int in
    let atom = map2 (fun s t -> e s t) term term in
    map
      (fun atoms ->
        match atoms with
        | [] -> Cq.boolean [ e x y ]
        | _ -> Cq.boolean atoms)
      (list_size (int_range 1 4) atom))

let prop_containment_reflexive =
  QCheck.Test.make ~name:"containment reflexive" ~count:100 (QCheck.make cq_gen)
    (fun q -> Cq.subsumes q q)

(* A CQ over E with [n] answer positions drawn from its body's
   variables. *)
let cq_answers_gen n =
  QCheck.Gen.(
    cq_gen >>= fun q ->
    list_repeat n (oneofl (Term.sorted_elements (Cq.vars q)))
    >|= fun answer -> Cq.make ~answer (Cq.body q))

let pp_pair (q, q') = Fmt.str "%a vs %a" Cq.pp q Cq.pp q'

let prop_chandra_merlin =
  QCheck.Test.make ~name:"subsumes ≡ holds on the canonical database"
    ~count:200
    (QCheck.make ~print:pp_pair
       QCheck.Gen.(
         int_range 0 2 >>= fun n -> pair (cq_answers_gen n) (cq_answers_gen n)))
    (fun (q, q') ->
      let db, tuple = canonical_database q in
      Cq.subsumes q' q = Cq.holds ~tuple db q')

let prop_containment_transitive =
  QCheck.Test.make ~name:"containment transitive" ~count:200
    (QCheck.make QCheck.Gen.(triple cq_gen cq_gen cq_gen))
    (fun (q1, q2, q3) ->
      (not (Cq.subsumes q1 q2 && Cq.subsumes q2 q3)) || Cq.subsumes q1 q3)

(* [Ucq.cover] keeps an equivalent query whose disjuncts are pairwise
   incomparable. *)
let prop_cover_antichain =
  QCheck.Test.make ~name:"Ucq.cover ≡ original, disjuncts incomparable"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) cq_gen))
    (fun qs ->
      let u = Ucq.make qs in
      let c = Ucq.cover u in
      let kept = List.mapi (fun i q -> (i, q)) (Ucq.disjuncts c) in
      Ucq.equivalent c u
      && Ucq.size c <= Ucq.size u
      && List.for_all
           (fun (i, q) ->
             List.for_all (fun (j, q') -> i = j || not (Cq.subsumes q' q)) kept)
           kept)

let prop_datalog_chase_agree =
  QCheck.Test.make ~name:"semi-naive ≡ chase on random datalog" ~count:25
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed ->
             Nca_core.Rulesets.random_instance ~seed ~constants:4 ~atoms:6
               (Symbol.Set.singleton (Symbol.make "E" 2)))
           (int_range 0 5000)))
    (fun i ->
      let rules =
        Parser.parse_rules "sym: E(x,y) -> E(y,x). tc: E(x,y), E(y,z) -> E(x,z)."
      in
      let semi = Datalog.closure i rules in
      let chase = Chase.run ~max_depth:30 ~max_atoms:100000 i rules in
      chase.saturated && Instance.equal semi chase.instance)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_containment_reflexive; prop_chandra_merlin;
      prop_containment_transitive; prop_cover_antichain;
      prop_datalog_chase_agree;
    ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "engines"
    [
      ( "datalog",
        [
          tc "transitive closure" test_datalog_transitive_closure;
          tc "rejects existentials" test_datalog_rejects_existentials;
          tc "agrees with chase" test_datalog_agrees_with_chase;
          tc "rounds" test_datalog_rounds;
          tc "round budget" test_datalog_round_budget;
          tc "trivial" test_datalog_empty_delta_terminates;
          tc "lemma 33 decomposition" test_datalog_lemma33_decomposition;
        ] );
      ( "containment",
        [
          tc "basic" test_containment_basic;
          tc "with answers" test_containment_with_answers;
          tc "canonical database" test_canonical_database;
          tc "ucq containment" test_ucq_containment;
          tc "ucq cover" test_ucq_cover;
        ] );
      ( "ramsey-empirical",
        [
          tc "random tournament" test_random_tournament_is_tournament;
          tc "random coloring" test_random_coloring_covers_edges;
          tc "theorem 7 at threshold" test_theorem7_two_colors;
          tc "below threshold" test_theorem7_below_threshold_can_fail;
          tc "monochromatic extraction" test_monochromatic_extraction;
        ] );
      ("qcheck", props);
    ]
