open Nca_logic
open Nca_graph
module G = Digraph.Term_graph

let vertex i = Term.cst (Fmt.str "t%d" i)

let random_tournament ~seed ~size =
  let st = Random.State.make [| seed |] in
  let g = ref G.empty in
  for i = 0 to size - 1 do
    g := G.add_vertex (vertex i) !g;
    for j = i + 1 to size - 1 do
      if Random.State.bool st then g := G.add_edge (vertex i) (vertex j) !g
      else g := G.add_edge (vertex j) (vertex i) !g
    done
  done;
  !g

let random_coloring ~seed ~colors g =
  let st = Random.State.make [| seed |] in
  List.map (fun e -> (e, Random.State.int st colors)) (G.edges g)

let monochromatic_tournament colored ~size =
  let colors = List.sort_uniq Int.compare (List.map snd colored) in
  List.find_map
    (fun c ->
      let g =
        G.of_edges
          (List.filter_map
             (fun (e, c') -> if c = c' then Some e else None)
             colored)
      in
      Option.map
        (fun t -> (c, t))
        (Tournament.find_tournament_of_size size g))
    colors

let check_theorem7 ~seed ~colors ~target ~trials =
  let n = Ramsey.upper_bound (List.init colors (fun _ -> target)) in
  let rec go i =
    if i >= trials then true
    else
      let t = random_tournament ~seed:(seed + i) ~size:n in
      let colored = random_coloring ~seed:(seed + i + 7919) ~colors t in
      match monochromatic_tournament colored ~size:target with
      | Some _ -> go (i + 1)
      | None -> false
  in
  go 0
