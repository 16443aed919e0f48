open Nca_graph

module G = Digraph.Term_graph

let neighbors g v = G.undirected_neighbors v g

(* Largest-degree-first greedy coloring; colors are 0-based. *)
let greedy g =
  if G.has_loop g then None
  else begin
    let order =
      List.sort
        (fun a b ->
          Int.compare
            (G.VSet.cardinal (neighbors g b))
            (G.VSet.cardinal (neighbors g a)))
        (G.vertices g)
    in
    let colors = Hashtbl.create 64 in
    List.iter
      (fun v ->
        let used =
          G.VSet.fold
            (fun w acc ->
              match Hashtbl.find_opt colors w with
              | Some c -> c :: acc
              | None -> acc)
            (neighbors g v) []
        in
        let rec first c = if List.mem c used then first (c + 1) else c in
        Hashtbl.replace colors v (first 0))
      order;
    Some colors
  end

let greedy_chromatic g =
  match greedy g with
  | None -> None
  | Some colors ->
      Some
        (Hashtbl.fold (fun _ c acc -> max acc (c + 1)) colors
           (if G.num_vertices g = 0 then 0 else 1))

let coloring k g =
  if G.has_loop g then None
  else begin
    (* backtracking over vertices in descending closure degree *)
    let order =
      List.sort
        (fun a b ->
          Int.compare
            (G.VSet.cardinal (neighbors g b))
            (G.VSet.cardinal (neighbors g a)))
        (G.vertices g)
    in
    let colors = Hashtbl.create 64 in
    let rec assign = function
      | [] -> true
      | v :: rest ->
          let blocked =
            G.VSet.fold
              (fun w acc ->
                match Hashtbl.find_opt colors w with
                | Some c -> c :: acc
                | None -> acc)
              (neighbors g v) []
          in
          let rec try_color c =
            if c >= k then false
            else if List.mem c blocked then try_color (c + 1)
            else begin
              Hashtbl.replace colors v c;
              if assign rest then true
              else begin
                Hashtbl.remove colors v;
                try_color (c + 1)
              end
            end
          in
          try_color 0
    in
    if assign order then
      Some (List.map (fun v -> (v, Hashtbl.find colors v)) order)
    else None
  end

let is_k_colorable k g = Option.is_some (coloring k g)

let clique_lower_bound g = Tournament.max_tournament_size g

let chromatic_number ?max_k g =
  match greedy_chromatic g with
  | None -> None
  | Some upper ->
      let limit = Option.value max_k ~default:upper in
      let lower = clique_lower_bound g in
      let rec search k =
        if k >= min upper limit then Some (min upper limit)
        else if is_k_colorable k g then Some k
        else search (k + 1)
      in
      search (max 1 lower)
