open Nca_logic

type verdict = {
  depth : int;
  saturated : bool;
  stopped : Nca_obs.Exhausted.t option;
  atoms : int;
  max_tournament : int;
  tournament : Term.t list;
  loop : bool;
  loop_level : int option;
}

let validate_full ?(max_depth = 6) ?(max_atoms = 20000) ?budget ~e i rules =
  Nca_obs.Telemetry.span "theorem1.validate" @@ fun () ->
  let chase = Nca_chase.Chase.run ~max_depth ~max_atoms ?budget i rules in
  let graph = Nca_chase.Chase.e_graph e chase in
  let tournament = Nca_graph.Tournament.max_tournament graph in
  let loop_level = Nca_chase.Chase.holds_at chase (Cq.loop_query e) in
  ( {
      depth = chase.Nca_chase.Chase.depth;
      saturated = chase.Nca_chase.Chase.saturated;
      stopped = chase.Nca_chase.Chase.stopped;
      atoms = Instance.cardinal chase.Nca_chase.Chase.instance;
      max_tournament = List.length tournament;
      tournament;
      loop = Option.is_some loop_level;
      loop_level;
    },
    chase )

let validate ?max_depth ?max_atoms ?budget ~e i rules =
  fst (validate_full ?max_depth ?max_atoms ?budget ~e i rules)

let implication_holds ~threshold v =
  v.max_tournament < threshold || v.loop

let tournament_size_bound ~rewriting_disjuncts =
  Nca_graph.Ramsey.four_clique_bound ~colors:(max 1 rewriting_disjuncts)

type point = {
  level : int;
  level_atoms : int;
  level_tournament : int;
  level_loop : bool;
}

let series ?(max_depth = 6) ?(max_atoms = 20000) ?budget ~e i rules =
  let chase = Nca_chase.Chase.run ~max_depth ~max_atoms ?budget i rules in
  let loop = Cq.loop_query e in
  List.mapi
    (fun level inst ->
      let g = Nca_graph.Digraph.of_instance e inst in
      {
        level;
        level_atoms = Instance.cardinal inst;
        level_tournament = Nca_graph.Tournament.max_tournament_size g;
        level_loop = Cq.holds inst loop;
      })
    chase.Nca_chase.Chase.levels

(* The structural bounds print " truncated" exactly as the seed did (they
   are the requested exploration depth); a wall-clock or cancellation stop
   is an anomaly and names its resource. *)
let pp_stopped ppf = function
  | None -> ()
  | Some e -> (
      match e.Nca_obs.Exhausted.resource with
      | Nca_obs.Exhausted.Depth | Nca_obs.Exhausted.Atoms ->
          Fmt.string ppf " truncated"
      | _ -> Fmt.pf ppf " stopped:%s" (Nca_obs.Exhausted.tag e))

let pp_verdict ppf v =
  Fmt.pf ppf
    "depth=%d atoms=%d max-tournament=%d loop=%b%a%s%a" v.depth v.atoms
    v.max_tournament v.loop
    Fmt.(option (fmt "@%d"))
    v.loop_level
    (if v.saturated then " saturated" else "")
    pp_stopped v.stopped
