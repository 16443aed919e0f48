(* Depth-first completion: the finite-model search the SAT-backed
   [Finite_model.search] replaced, kept as its differential oracle. Every
   unsatisfied trigger is repaired by mapping the head's existential
   variables to existing domain elements, in all possible ways. *)

open Nca_logic
module Hom = Nca_logic.Hom
module Trigger = Nca_chase.Trigger
module Finite_model = Nca_chase.Finite_model
module Budget = Nca_obs.Budget

exception Found_trigger of Trigger.t
exception Stop of Nca_obs.Exhausted.t

(* First-match: raising from the [Hom.iter] callback stops the
   enumeration at the first unsatisfied trigger instead of materializing
   every body homomorphism first. *)
let unsatisfied_trigger rules inst =
  match
    List.iter
      (fun rule ->
        let frontier = Rule.frontier rule in
        Hom.iter (Rule.body rule) inst (fun hom ->
            let init = Subst.restrict frontier hom in
            if not (Hom.exists ~init (Rule.head rule) inst) then
              raise (Found_trigger { Trigger.rule; hom })))
      rules
  with
  | () -> None
  | exception Found_trigger tr -> Some tr

let ev_dfs = Nca_obs.Events.label "fm.dfs"

let fresh_constants n =
  List.init n (fun _ -> Term.cst (Names.name (Names.fresh ~prefix:"m" ())))

let search ?(fresh = 2) ?max_steps ?forbid ?(budget = Budget.unlimited) start
    rules =
  if fresh < 0 then invalid_arg "Fm_dfs.search: fresh < 0";
  let budget =
    Budget.intersect budget
      (Budget.v ~max_steps:(Option.value ~default:200000 max_steps) ())
  in
  let domain =
    Term.sorted_elements (Instance.adom start) @ fresh_constants fresh
  in
  let steps = ref 0 in
  let check_budget () =
    (match Budget.steps budget ~used:!steps with
    | Some e -> raise (Stop e)
    | None -> ());
    if !steps land 255 = 0 then
      match Budget.interrupted budget with
      | Some e -> raise (Stop e)
      | None -> ()
  in
  let allowed inst =
    match forbid with None -> true | Some q -> not (Cq.holds inst q)
  in
  let rec dfs inst =
    incr steps;
    check_budget ();
    match unsatisfied_trigger rules inst with
    | None -> Some inst
    | Some tr ->
        let rule = tr.Trigger.rule in
        let exist = Term.sorted_elements (Rule.exist_vars rule) in
        (* a step is a candidate considered, not just a node recursed
           into, so disallowed candidates stay under the budget *)
        let rec try_candidates seq =
          match seq () with
          | Seq.Nil -> None
          | Seq.Cons (assignment, rest) -> (
              incr steps;
              check_budget ();
              (* body variables through the trigger's homomorphism,
                 existential variables through the chosen assignment *)
              let ext = Subst.compose tr.Trigger.hom assignment in
              let inst' =
                List.fold_left
                  (fun acc a -> Instance.add (Subst.apply_atom ext a) acc)
                  inst (Rule.head rule)
              in
              match if allowed inst' then dfs inst' else None with
              | Some m -> Some m
              | None -> try_candidates rest)
        in
        try_candidates (Nca_sat.Fm_inst.assignments exist domain)
  in
  let outcome =
    if not (allowed start) then Finite_model.No_model
    else
      match dfs start with
      | Some m -> Finite_model.Model m
      | None -> Finite_model.No_model
      | exception Stop e -> Finite_model.Exhausted e
  in
  Nca_obs.Telemetry.count "finite_model.nodes" !steps;
  Nca_obs.Telemetry.instant ev_dfs ~arg:!steps;
  outcome

let loop_free_model_exists ?fresh ?max_steps ?budget ~e start rules =
  match
    search ?fresh ?max_steps ?budget ~forbid:(Cq.loop_query e) start rules
  with
  | Finite_model.Model _ -> Finite_model.Exists
  | Finite_model.No_model -> Finite_model.Absent
  | Finite_model.Exhausted e -> Finite_model.Unknown e
