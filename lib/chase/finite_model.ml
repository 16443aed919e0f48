open Nca_logic

exception Found_trigger of Trigger.t

(* First-match: [Hom.iter] reports homomorphisms during its backtracking
   search, so raising from the callback stops the enumeration at the
   first unsatisfied trigger instead of materializing every body
   homomorphism first (the callback order is the order [Hom.all] would
   have listed them in, so the trigger found is unchanged). *)
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

let violations inst rules =
  List.filter
    (fun tr ->
      let init =
        Subst.restrict (Rule.frontier tr.Trigger.rule) tr.Trigger.hom
      in
      not (Hom.exists ~init (Rule.head tr.Trigger.rule) inst))
    (Trigger.all rules inst)

let is_model inst rules = Option.is_none (unsatisfied_trigger rules inst)

type outcome =
  | Model of Instance.t
  | No_model
  | Exhausted of Nca_obs.Exhausted.t

type engine = Dfs | Sat

exception Stop of Nca_obs.Exhausted.t

(* All assignments of [vars] to [domain], as a lazy stream: with [k]
   existential variables the full |domain|^k product is never
   materialized — candidates are produced one at a time under the
   governor's eye. *)
let assignments vars domain =
  List.fold_left
    (fun partial x ->
      Seq.concat_map
        (fun s -> Seq.map (fun d -> Subst.add x d s) (List.to_seq domain))
        partial)
    (Seq.return Subst.empty) vars

(* Genuinely fresh domain constants. [Names.fresh] skips every interned
   name, so these can never collide with [start]'s active domain — not
   even when a model from a prior in-process search is fed back in. *)
let fresh_constants n =
  let rec go i =
    if i = n then []
    else
      let c = Term.cst (Names.name (Names.fresh ~prefix:"m" ())) in
      c :: go (i + 1)
  in
  go 0

let ev_dfs = Nca_obs.Events.label "fm.dfs"

let effective_budget ?max_steps budget =
  Nca_obs.Budget.intersect budget
    (Nca_obs.Budget.v ~max_steps:(Option.value ~default:200000 max_steps) ())

let search_dfs ~budget ~domain ?forbid start rules =
  let steps = ref 0 in
  let check_budget () =
    (match Nca_obs.Budget.steps budget ~used:!steps with
    | Some e -> raise (Stop e)
    | None -> ());
    (* deadline/cancellation checkpoints amortized over the steps *)
    if !steps land 255 = 0 then
      match Nca_obs.Budget.interrupted budget with
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
        (* lazy stream with a budget check per candidate: a step is a
           candidate considered, not just a node recursed into, so
           disallowed candidates can no longer escape the governor *)
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
        try_candidates (assignments exist domain)
  in
  let outcome =
    if not (allowed start) then No_model
    else
      match dfs start with
      | Some m -> Model m
      | None -> No_model
      | exception Stop e -> Exhausted e
  in
  Nca_obs.Telemetry.count "finite_model.nodes" !steps;
  Nca_obs.Telemetry.instant ev_dfs ~arg:!steps;
  outcome

module Sat_engine = Nca_sat.Fm_inst.Make (Nca_sat.Dpll)

let verified ?forbid start rules m =
  Instance.subset start m
  && is_model m rules
  && match forbid with None -> true | Some q -> not (Cq.holds m q)

let search_sat ~budget ~base ~fresh ?forbid start rules =
  match Sat_engine.search ?forbid ~budget ~base ~fresh start rules with
  | Nca_sat.Fm_inst.Model m ->
      (* belt-and-braces: never let an encoding bug ship a non-model *)
      if not (verified ?forbid start rules m) then
        failwith
          "Finite_model.search: SAT model failed independent re-verification";
      Model m
  | Nca_sat.Fm_inst.No_model -> No_model
  | Nca_sat.Fm_inst.Exhausted e -> Exhausted e

let search ?(engine = Dfs) ?(fresh = 2) ?max_steps ?forbid
    ?(budget = Nca_obs.Budget.unlimited) start rules =
  (* [fresh_constants] counts up to [fresh]: a negative count never ends *)
  if fresh < 0 then invalid_arg "Finite_model.search: fresh < 0";
  let budget = effective_budget ?max_steps budget in
  let base =
    (* name order: both engines try domain elements in list order, so
       the model found must not depend on intern-id order *)
    Term.sorted_elements (Instance.adom start)
  in
  let fresh_elts = fresh_constants fresh in
  Nca_obs.Telemetry.span "finite_model.search" @@ fun () ->
  match engine with
  | Dfs -> search_dfs ~budget ~domain:(base @ fresh_elts) ?forbid start rules
  | Sat -> search_sat ~budget ~base ~fresh:fresh_elts ?forbid start rules

type verdict =
  | Exists
  | Absent
  | Unknown of Nca_obs.Exhausted.t

let loop_free_model_exists ?engine ?fresh ?max_steps ?budget ~e start rules =
  match
    search ?engine ?fresh ?max_steps ?budget ~forbid:(Cq.loop_query e) start
      rules
  with
  | Model _ -> Exists
  | No_model -> Absent
  | Exhausted e -> Unknown e
