open Nca_logic

type point = {
  level : int;
  atoms : int;
  tournament : int;
  chromatic : int option;
  loop : bool;
}

let series ?(max_depth = 5) ?(max_atoms = 10000) ~e i rules =
  let chase = Nca_chase.Chase.run ~max_depth ~max_atoms i rules in
  let loop_q = Cq.loop_query e in
  List.mapi
    (fun level inst ->
      let g = Nca_graph.Digraph.of_instance e inst in
      {
        level;
        atoms = Instance.cardinal inst;
        tournament = Nca_graph.Tournament.max_tournament_size g;
        chromatic = Coloring.chromatic_number ~max_k:12 g;
        loop = Cq.holds inst loop_q;
      })
    chase.Nca_chase.Chase.levels

let verdict points =
  let final_tournament =
    List.fold_left (fun acc p -> max acc p.tournament) 0 points
  in
  match
    List.find_opt
      (fun p ->
        (not p.loop)
        &&
        match p.chromatic with
        | Some chi -> chi > final_tournament
        | None -> false)
      points
  with
  | Some p -> `Suspicious p
  | None -> `Consistent
