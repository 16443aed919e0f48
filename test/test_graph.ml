open Nca_logic
module G = Nca_graph.Digraph.Term_graph
module Tournament = Nca_graph.Tournament
module Ramsey = Nca_graph.Ramsey
module MS = Nca_graph.Multiset.Int_multiset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v i = Term.cst (Printf.sprintf "v%d" i)

let graph edges = G.of_edges (List.map (fun (i, j) -> (v i, v j)) edges)

(* ------------------------------------------------------------------ *)
(* Digraph *)

let test_build () =
  let g = graph [ (1, 2); (2, 3) ] in
  check_int "vertices" 3 (G.num_vertices g);
  check_int "edges" 2 (G.num_edges g);
  check "has edge" true (G.has_edge (v 1) (v 2) g);
  check "no reverse edge" false (G.has_edge (v 2) (v 1) g)

let test_degrees () =
  let g = graph [ (1, 2); (1, 3); (2, 3) ] in
  check_int "out 1" 2 (G.out_degree (v 1) g);
  check_int "in 3" 2 (G.in_degree (v 3) g);
  check_int "in 1" 0 (G.in_degree (v 1) g)

let test_loops () =
  let g = graph [ (1, 1); (1, 2) ] in
  check "has loop" true (G.has_loop g);
  check_int "loop vertex" 1 (List.length (G.loops g));
  check "loop-free" false (G.has_loop (graph [ (1, 2) ]))

let test_dag () =
  check "chain is dag" true (G.is_dag (graph [ (1, 2); (2, 3) ]));
  check "cycle is not" false (G.is_dag (graph [ (1, 2); (2, 1) ]));
  check "loop is not" false (G.is_dag (graph [ (1, 1) ]));
  check "diamond is dag" true
    (G.is_dag (graph [ (1, 2); (1, 3); (2, 4); (3, 4) ]))

let test_topo () =
  match G.topo_sort (graph [ (1, 2); (2, 3); (1, 3) ]) with
  | None -> Alcotest.fail "expected a topological order"
  | Some order ->
      let pos t =
        let rec go i = function
          | [] -> -1
          | u :: rest -> if Term.equal u t then i else go (i + 1) rest
        in
        go 0 order
      in
      check "1 before 2" true (pos (v 1) < pos (v 2));
      check "2 before 3" true (pos (v 2) < pos (v 3))

let test_topo_cyclic () =
  check "no order on cycle" true (G.topo_sort (graph [ (1, 2); (2, 1) ]) = None)

let test_reach () =
  let g = graph [ (1, 2); (2, 3) ] in
  check "reaches transitively" true (G.reaches (v 1) (v 3) g);
  check "not backwards" false (G.reaches (v 3) (v 1) g);
  check "no empty path" false (G.reaches (v 1) (v 1) g)

let test_maximal () =
  let g = graph [ (1, 2); (1, 3) ] in
  let maxima = G.maximal_vertices g in
  check_int "two maxima" 2 (List.length maxima);
  check "2 is maximal" true (List.exists (Term.equal (v 2)) maxima);
  check "1 is not" false (List.exists (Term.equal (v 1)) maxima)

let test_restrict () =
  let g = graph [ (1, 2); (2, 3) ] in
  let r = G.restrict (G.VSet.of_list [ v 1; v 2 ]) g in
  check_int "restricted vertices" 2 (G.num_vertices r);
  check_int "restricted edges" 1 (G.num_edges r)

let test_components () =
  let g = graph [ (1, 2); (3, 4) ] in
  check_int "two components" 2 (List.length (G.weakly_connected_components g))

let test_of_instance () =
  let i = Parser.instance "E(a,b), E(b,c), F(c,d)" in
  let g = Nca_graph.Digraph.of_instance (Symbol.make "E" 2) i in
  check_int "E edges only" 2 (G.num_edges g);
  check_int "all adom vertices" 4 (G.num_vertices g)

let test_of_atoms () =
  let x = Term.var "x" and y = Term.var "y" in
  let g =
    Nca_graph.Digraph.of_atoms [ Atom.app "E" [ x; y ]; Atom.app "P" [ x ] ]
  in
  check_int "one edge" 1 (G.num_edges g);
  check "unary keeps vertex" true (G.mem_vertex x g)

(* ------------------------------------------------------------------ *)
(* Tournament *)

let test_tournament_simple () =
  (* 3-cycle: a tournament of size 3 *)
  let g = graph [ (1, 2); (2, 3); (3, 1) ] in
  check_int "3-cycle is a 3-tournament" 3 (Tournament.max_tournament_size g)

let test_tournament_inclusive_or () =
  (* both directions present is still a tournament (footnote 2) *)
  let g = graph [ (1, 2); (2, 1); (1, 3); (2, 3) ] in
  check_int "inclusive-or tournament" 3 (Tournament.max_tournament_size g)

let test_tournament_path () =
  let g = graph [ (1, 2); (2, 3); (3, 4) ] in
  check_int "path has only 2-tournaments" 2 (Tournament.max_tournament_size g)

let test_tournament_transitive () =
  let g = graph [ (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ] in
  check_int "transitive tournament" 4 (Tournament.max_tournament_size g)

let test_tournament_early_exit () =
  let g = graph [ (1, 2); (1, 3); (2, 3); (4, 5) ] in
  check "has 3" true (Tournament.has_tournament_of_size 3 g);
  check "no 4" false (Tournament.has_tournament_of_size 4 g);
  check "trivial 0" true (Tournament.has_tournament_of_size 0 g)

let test_tournament_membership () =
  let g = graph [ (1, 2); (2, 3); (3, 1) ] in
  check "witness is a tournament" true
    (Tournament.is_tournament (Tournament.max_tournament g) g);
  check "non-tournament detected" false
    (Tournament.is_tournament [ v 1; v 2; v 3; v 4 ] g)

let test_tournament_greedy_bound () =
  let g = graph [ (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ] in
  check "greedy ≤ exact" true
    (Tournament.greedy_lower_bound g <= Tournament.max_tournament_size g);
  check "greedy ≥ 2 on an edge" true (Tournament.greedy_lower_bound g >= 2)

let test_tournament_empty () =
  check_int "empty graph" 0 (Tournament.max_tournament_size G.empty)

(* ------------------------------------------------------------------ *)
(* Ramsey *)

let test_ramsey_one_color () =
  check_int "R(s) = s" 5 (Ramsey.upper_bound [ 5 ]);
  check_int "R(1) = 1" 1 (Ramsey.upper_bound [ 1 ])

let test_ramsey_trivial_colors () =
  check_int "R(2,m) = m" 7 (Ramsey.upper_bound [ 2; 7 ]);
  check_int "a 1 dominates" 1 (Ramsey.upper_bound [ 1; 100 ])

let test_ramsey_known () =
  check_int "R(3,3)" 6 (Ramsey.upper_bound [ 3; 3 ]);
  check_int "R(4,4)" 18 (Ramsey.upper_bound [ 4; 4 ]);
  check_int "R(3,3,3)" 17 (Ramsey.upper_bound [ 3; 3; 3 ]);
  check "R(3,3) exact" true (Ramsey.is_exact [ 3; 3 ]);
  check "R(4,4,4) is a bound" false (Ramsey.is_exact [ 4; 4; 4 ])

let test_ramsey_monotone () =
  check "more colors, bigger bound" true
    (Ramsey.four_clique_bound ~colors:3 > Ramsey.four_clique_bound ~colors:2);
  check_int "one color" 4 (Ramsey.four_clique_bound ~colors:1);
  check_int "two colors" 18 (Ramsey.four_clique_bound ~colors:2)

(* The values before saturation, pinned; from 12 colors on the bound
   leaves [int] and saturates instead of wrapping negative. *)
let test_ramsey_four_clique_values () =
  List.iteri
    (fun i v ->
      check_int
        (Printf.sprintf "%d colors" (i + 1))
        v
        (Ramsey.four_clique_bound ~colors:(i + 1)))
    [ 4; 18; 254; 7006; 313412; 20615384; 1871833000; 224265648842 ];
  let bounds =
    List.init 30 (fun i -> Ramsey.four_clique_bound ~colors:(i + 1))
  in
  check "non-negative" true (List.for_all (fun b -> b >= 0) bounds);
  check "monotone" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < 29) bounds)
       (List.tl bounds));
  List.iteri
    (fun i b ->
      if i + 1 >= 12 then
        check_int (Printf.sprintf "%d colors saturate" (i + 1)) max_int b)
    bounds

let test_ramsey_many_colors_fast () =
  let t0 = Unix.gettimeofday () in
  check_int "2060 colors" max_int (Ramsey.four_clique_bound ~colors:2060);
  check "under 1 s" true (Unix.gettimeofday () -. t0 < 1.0)

let test_ramsey_symmetric () =
  check_int "argument order irrelevant" (Ramsey.upper_bound [ 3; 4 ])
    (Ramsey.upper_bound [ 4; 3 ])

let test_ramsey_invalid () =
  check "empty rejected" true
    (try
       ignore (Ramsey.upper_bound []);
       false
     with Invalid_argument _ -> true);
  check "zero rejected" true
    (try
       ignore (Ramsey.upper_bound [ 0; 3 ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Multisets (Lemma 8 machinery) *)

let test_multiset_basics () =
  let m = MS.of_list [ 1; 2; 2; 3 ] in
  check_int "size" 4 (MS.size m);
  check_int "count 2" 2 (MS.count 2 m);
  check "max" true (MS.max_opt m = Some 3);
  check "empty max" true (MS.max_opt MS.empty = None)

let test_multiset_ops () =
  let m = MS.of_list [ 1; 2 ] and n = MS.of_list [ 2; 3 ] in
  check_int "union size" 4 (MS.size (MS.union m n));
  check_int "union count 2" 2 (MS.count 2 (MS.union m n));
  check_int "inter" 1 (MS.size (MS.inter m n));
  check_int "diff" 1 (MS.size (MS.diff m n));
  check_int "diff keeps 1" 1 (MS.count 1 (MS.diff m n))

let test_multiset_remove () =
  let m = MS.of_list [ 2; 2 ] in
  check_int "remove one occurrence" 1 (MS.count 2 (MS.remove 2 m));
  check_int "remove absent is noop" 0 (MS.count 5 (MS.remove 5 m))

let test_lex_order () =
  let lt a bl = MS.compare_lex (MS.of_list a) (MS.of_list bl) < 0 in
  check "∅ < {1}" true (lt [] [ 1 ]);
  check "{1,1} < {2}" true (lt [ 1; 1 ] [ 2 ]);
  check "{2} < {2,1}" true (lt [ 2 ] [ 2; 1 ]);
  check "{1,3} < {2,3}" true (lt [ 1; 3 ] [ 2; 3 ]);
  check "equal" true (MS.compare_lex (MS.of_list [ 1; 2 ]) (MS.of_list [ 2; 1 ]) = 0);
  check "not symmetric" false (lt [ 2 ] [ 1; 1 ])

let test_lex_peak_removal_shape () =
  (* the shape of Lemma 40's decrease: replacing a maximal timestamp by any
     number of strictly smaller ones decreases the multiset *)
  let before = MS.of_list [ 0; 1; 3 ] in
  let after = MS.of_list [ 0; 1; 2; 2; 2 ] in
  check "peak removal decreases" true (MS.compare_lex after before < 0)

let ms_arb =
  QCheck.(make Gen.(map MS.of_list (list_size (int_range 0 8) (int_range 0 5))))

let prop_lex_total =
  QCheck.Test.make ~name:"lex order total and antisymmetric" ~count:200
    (QCheck.pair ms_arb ms_arb) (fun (m, n) ->
      let c1 = MS.compare_lex m n and c2 = MS.compare_lex n m in
      (c1 = 0 && c2 = 0 && MS.equal m n) || c1 * c2 < 0)

let prop_lex_transitive =
  QCheck.Test.make ~name:"lex order transitive" ~count:200
    (QCheck.triple ms_arb ms_arb ms_arb) (fun (m, n, o) ->
      let le a bl = MS.compare_lex a bl <= 0 in
      (not (le m n && le n o)) || le m o)

let prop_union_monotone =
  QCheck.Test.make ~name:"adding elements grows in lex order" ~count:200
    (QCheck.pair ms_arb QCheck.(int_range 0 5)) (fun (m, x) ->
      MS.compare_lex m (MS.add x m) < 0)

let prop_no_infinite_descent =
  (* Lemma 8 witnessed on bounded multisets over 0..5 of size ≤ 6: any
     strictly descending chain from a random start must terminate within
     the (finite) number of such multisets. *)
  QCheck.Test.make ~name:"well-foundedness: descent terminates" ~count:50
    ms_arb (fun start ->
      let smaller m =
        (* a canonical strictly smaller multiset: drop one max element and
           re-add all values below it *)
        match MS.max_opt m with
        | None -> None
        | Some mx ->
            let m' = MS.remove mx m in
            if mx = 0 then Some m'
            else Some (MS.add (mx - 1) m')
      in
      let rec descend m steps =
        if steps > 100000 then false
        else
          match smaller m with
          | None -> true
          | Some m' ->
              assert (MS.compare_lex m' m < 0);
              descend m' (steps + 1)
      in
      descend start 0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lex_total; prop_lex_transitive; prop_union_monotone;
      prop_no_infinite_descent ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          tc "build" test_build;
          tc "degrees" test_degrees;
          tc "loops" test_loops;
          tc "dag" test_dag;
          tc "topo" test_topo;
          tc "topo cyclic" test_topo_cyclic;
          tc "reach" test_reach;
          tc "maximal" test_maximal;
          tc "restrict" test_restrict;
          tc "components" test_components;
          tc "of instance" test_of_instance;
          tc "of atoms" test_of_atoms;
        ] );
      ( "tournament",
        [
          tc "three-cycle" test_tournament_simple;
          tc "inclusive or" test_tournament_inclusive_or;
          tc "path" test_tournament_path;
          tc "transitive" test_tournament_transitive;
          tc "early exit" test_tournament_early_exit;
          tc "membership" test_tournament_membership;
          tc "greedy bound" test_tournament_greedy_bound;
          tc "empty" test_tournament_empty;
        ] );
      ( "ramsey",
        [
          tc "one color" test_ramsey_one_color;
          tc "trivial colors" test_ramsey_trivial_colors;
          tc "known values" test_ramsey_known;
          tc "monotone" test_ramsey_monotone;
          tc "four-clique values" test_ramsey_four_clique_values;
          tc "many colors fast" test_ramsey_many_colors_fast;
          tc "symmetric" test_ramsey_symmetric;
          tc "invalid" test_ramsey_invalid;
        ] );
      ( "multiset",
        [
          tc "basics" test_multiset_basics;
          tc "ops" test_multiset_ops;
          tc "remove" test_multiset_remove;
          tc "lex order" test_lex_order;
          tc "peak removal shape" test_lex_peak_removal_shape;
        ] );
      ("properties", props);
    ]
