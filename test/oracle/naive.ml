(* The seed ("before") engines, kept verbatim so the bench's before/after
   numbers stay honest across changes and the tests have an order-naive
   reference: predicate-scan homomorphism search with sub-goals ordered
   by bound positions, the oblivious chase re-enumerating every trigger
   every level behind string trigger keys, and semi-naive Datalog with
   the pivot seeded on the delta and the rest of the body scanned. *)

open Nca_logic
module Trigger = Nca_chase.Trigger
module Datalog = Nca_chase.Datalog

(* Seed Hom: candidates filtered by predicate only, sub-goal order by
   number of already-bound positions. *)

let match_atom sub a b =
  let rec go sub ss ts =
    match (ss, ts) with
    | [], [] -> Some sub
    | s :: ss, t :: ts -> (
        if not (Term.is_mappable s) then
          if Term.equal s t then go sub ss ts else None
        else
          match Subst.find_opt s sub with
          | Some u -> if Term.equal u t then go sub ss ts else None
          | None -> go (Subst.add s t sub) ss ts)
    | _ -> None
  in
  go sub (Atom.args a) (Atom.args b)

let bound_terms sub a =
  List.fold_left
    (fun n t ->
      if (not (Term.is_mappable t)) || Subst.mem t sub then n + 1 else n)
    0 (Atom.args a)

let pick sub atoms =
  let rec go best best_score acc = function
    | [] -> (best, List.rev acc)
    | a :: rest ->
        let score = bound_terms sub a in
        if score > best_score then go a score (best :: acc) rest
        else go best best_score (a :: acc) rest
  in
  match atoms with
  | [] -> invalid_arg "Naive.pick: empty"
  | a :: rest -> go a (bound_terms sub a) [] rest

let iter ?(init = Subst.empty) src tgt f =
  let rec solve sub = function
    | [] -> f sub
    | atoms ->
        let a, rest = pick sub atoms in
        List.iter
          (fun b ->
            match match_atom sub a b with
            | Some sub' -> solve sub' rest
            | None -> ())
          (Instance.with_pred (Atom.pred a) tgt)
  in
  solve init src

let count ?init src tgt =
  let n = ref 0 in
  iter ?init src tgt (fun _ -> incr n);
  !n

let trigger_all rules i =
  List.concat_map
    (fun rule ->
      let acc = ref [] in
      iter (Rule.body rule) i (fun hom ->
          acc := { Trigger.rule; hom } :: !acc);
      List.rev !acc)
    rules

(* Seed trigger identity: a formatted string per enumeration. *)
let trigger_key (tr : Trigger.t) =
  let bindings =
    Term.Set.elements (Rule.body_vars tr.rule)
    |> List.map (fun x ->
           Fmt.str "%a=%a" Term.pp x Term.pp (Subst.apply tr.hom x))
  in
  String.concat "|" (Rule.name tr.rule :: bindings)

let stamp_terms level terms stamps =
  Term.Set.fold
    (fun t acc ->
      if Term.Map.mem t acc then acc else Term.Map.add t level acc)
    terms stamps

(* Seed oblivious chase: re-enumerates every trigger over the whole
   instance at every level, filtered through the string-key table;
   keeps the same timestamp/provenance bookkeeping for a fair clock. *)
let chase ~max_depth ~max_atoms start rules =
  let fired = Hashtbl.create 256 in
  let rec go current levels_rev level stamps prov =
    if level >= max_depth then finish current levels_rev ~saturated:false
    else
      let triggers =
        List.filter
          (fun tr ->
            let k = trigger_key tr in
            if Hashtbl.mem fired k then false
            else begin
              Hashtbl.add fired k ();
              true
            end)
          (trigger_all rules current)
      in
      if triggers = [] then finish current levels_rev ~saturated:true
      else begin
        let next, stamps, prov =
          List.fold_left
            (fun (inst, stamps, prov) (tr : Trigger.t) ->
              let out, ext = Trigger.output tr in
              let prov =
                Term.Set.fold
                  (fun z acc ->
                    Term.Map.add (Subst.apply ext z)
                      (tr.rule, tr.hom, ext, level + 1)
                      acc)
                  (Rule.exist_vars tr.rule) prov
              in
              ( Instance.union inst out,
                stamp_terms (level + 1) (Instance.adom out) stamps,
                prov ))
            (current, stamps, prov) triggers
        in
        if Instance.cardinal next > max_atoms then
          finish next (next :: levels_rev) ~saturated:false
        else go next (next :: levels_rev) (level + 1) stamps prov
      end
  and finish instance levels_rev ~saturated =
    (instance, List.rev levels_rev, saturated)
  in
  let stamps = stamp_terms 0 (Instance.adom start) Term.Map.empty in
  go start [ start ] 0 stamps Term.Map.empty

(* Seed semi-naive Datalog: pivot seeded on the delta, the rest of the
   body matched by predicate scan over the whole relation (duplicate
   enumerations across pivots included), persistent accumulator. *)
let datalog_saturate ?(max_rounds = 10000) start rules =
  let rec split_nth i acc = function
    | [] -> invalid_arg "split_nth"
    | x :: rest ->
        if i = 0 then (x, List.rev_append acc rest)
        else split_nth (i - 1) (x :: acc) rest
  in
  let rec go total delta round =
    if Instance.is_empty delta then total
    else if round > max_rounds then failwith "naive datalog: rounds budget"
    else begin
      let fresh = ref Instance.empty in
      List.iter
        (fun rule ->
          let body = Rule.body rule in
          List.iteri
            (fun i _ ->
              let pivot, rest = split_nth i [] body in
              Instance.iter
                (fun fact ->
                  match Datalog.seed_with pivot fact with
                  | None -> ()
                  | Some seed ->
                      iter ~init:seed rest total (fun h ->
                          List.iter
                            (fun head_atom ->
                              let derived = Subst.apply_atom h head_atom in
                              if not (Instance.mem derived total) then
                                fresh := Instance.add derived !fresh)
                            (Rule.head rule)))
                delta)
            body)
        rules;
      let fresh = Instance.diff !fresh total in
      go (Instance.union total fresh) fresh (round + 1)
    end
  in
  go start start 0
