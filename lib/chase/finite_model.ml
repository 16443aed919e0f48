open Nca_logic

type outcome =
  | Model of Instance.t
  | No_model
  | Exhausted of Nca_obs.Exhausted.t

type engine = Sat

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

module Sat_engine = Nca_sat.Fm_inst.Make (Nca_sat.Dpll)

let search ?engine:_ ?(fresh = 2) ?max_steps ?forbid
    ?(budget = Nca_obs.Budget.unlimited) start rules =
  (* [fresh_constants] counts up to [fresh]: a negative count never ends *)
  if fresh < 0 then invalid_arg "Finite_model.search: fresh < 0";
  let budget =
    let max_steps = Option.value ~default:200000 max_steps in
    Nca_obs.Budget.(intersect budget (v ~max_steps ()))
  in
  (* name order, so the model found does not depend on intern-id order *)
  let base = Term.sorted_elements (Instance.adom start) in
  let fresh = fresh_constants fresh in
  Nca_obs.Telemetry.span "finite_model.search" @@ fun () ->
  match Sat_engine.search ?forbid ~budget ~base ~fresh start rules with
  | Nca_sat.Fm_inst.Model m -> (
      (* belt-and-braces: never let an encoding bug ship a non-model *)
      match Fm_check.check ?forbid ~start ~rules m with
      | Ok () -> Model m
      | Error reason ->
          failwith
            ("Finite_model.search: SAT model failed independent \
              re-verification: " ^ reason))
  | Nca_sat.Fm_inst.No_model -> No_model
  | Nca_sat.Fm_inst.Exhausted e -> Exhausted e

type verdict =
  | Exists
  | Absent
  | Unknown of Nca_obs.Exhausted.t

let loop_free_model_exists ?fresh ?max_steps ?budget ~e start rules =
  let forbid = Cq.loop_query e in
  match search ?fresh ?max_steps ?budget ~forbid start rules with
  | Model _ -> Exists
  | No_model -> Absent
  | Exhausted e -> Unknown e
