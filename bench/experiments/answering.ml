open Nca_logic
module Rewrite = Nca_rewriting.Rewrite

let database_tuple adom tuple = List.for_all (fun t -> Term.Set.mem t adom) tuple

let answers_via_chase ?(depth = 6) ?(max_atoms = 20000) rules i q =
  let chase = Nca_chase.Chase.run ~max_depth:depth ~max_atoms i rules in
  let adom = Instance.adom i in
  List.filter (database_tuple adom)
    (Cq.answers chase.Nca_chase.Chase.instance q)

let ucq_answers i u =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun q -> Cq.answers i q)
    (Ucq.disjuncts u)
  |> List.filter (fun tuple ->
         if Hashtbl.mem seen tuple then false
         else begin
           Hashtbl.add seen tuple ();
           true
         end)

let answers_via_rewriting ?max_rounds ?max_disjuncts rules i q =
  let out = Rewrite.rewrite ?max_rounds ?max_disjuncts rules q in
  if not out.complete then None else Some (ucq_answers i out.ucq)

let entails ?depth ?max_rounds rules i q =
  match answers_via_rewriting ?max_rounds rules i q with
  | Some tuples -> tuples <> []
  | None ->
      let chase = Nca_chase.Chase.run ?max_depth:depth i rules in
      Cq.holds chase.Nca_chase.Chase.instance q

let sort_tuples = List.sort (List.compare Term.compare)

let methods_agree ?depth ?max_rounds rules i q =
  match answers_via_rewriting ?max_rounds rules i q with
  | None -> None
  | Some backward ->
      let forward = answers_via_chase ?depth rules i q in
      Some (sort_tuples backward = sort_tuples forward)

let rewrite_composed ?max_rounds ?max_disjuncts ?budget r1 r2 q =
  let inner = Rewrite.rewrite ?max_rounds ?max_disjuncts ?budget r2 q in
  let outer =
    Rewrite.rewrite_ucq ?max_rounds ?max_disjuncts ?budget r1 inner.ucq
  in
  {
    outer with
    Rewrite.complete = inner.complete && outer.Rewrite.complete;
    (* the inner stage's verdict wins: it ran (and stopped) first *)
    stopped =
      (match inner.Rewrite.stopped with
      | Some _ as s -> s
      | None -> outer.Rewrite.stopped);
    generated = inner.generated + outer.Rewrite.generated;
  }
