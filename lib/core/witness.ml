open Nca_logic
module MS = Nca_graph.Multiset.Int_multiset

type t = {
  rules : Rule.t list;
  datalog : Rule.t list;
  existential : Rule.t list;
  chase_ex : Nca_chase.Chase.t;
  full : Instance.t;
  closure_stopped : Nca_obs.Exhausted.t option;
  e : Symbol.t;
  rewriting : Ucq.t;
  rewriting_complete : bool;
}

let analyze ?(depth = 6) ?max_rounds ?max_disjuncts
    ?(budget = Nca_obs.Budget.unlimited) ~e rules =
  Nca_obs.Telemetry.span "witness.analyze" @@ fun () ->
  let datalog, existential = Rule.split_datalog rules in
  let chase_ex =
    Nca_chase.Chase.run ~max_depth:depth ~budget Instance.top existential
  in
  (* the Datalog closure is finite: use the semi-naive engine (equivalence
     with the generic chase is part of the test suite). On exhaustion the
     partial closure is still a sound under-approximation — downstream
     verdicts must consult [closure_stopped] before reading absence of an
     edge as a fact. *)
  let full_closure, closure_stopped =
    match
      Nca_chase.Datalog.saturate ~max_atoms:200000 ~budget
        chase_ex.Nca_chase.Chase.instance datalog
    with
    | Ok total -> (total, None)
    | Error { Nca_chase.Datalog.err; partial; _ } -> (partial, Some err)
  in
  let outcome =
    Nca_rewriting.Injective.injective_rewriting ?max_rounds ?max_disjuncts
      ~budget rules (Cq.atom_query e)
  in
  {
    rules;
    datalog;
    existential;
    chase_ex;
    full = full_closure;
    closure_stopped;
    e;
    rewriting = outcome.Nca_rewriting.Rewrite.ucq;
    rewriting_complete = outcome.Nca_rewriting.Rewrite.complete;
  }

let edges t = Instance.edges t.e t.full

let witnesses t s tt =
  List.filter_map
    (fun q ->
      let inst = t.chase_ex.Nca_chase.Chase.instance in
      Option.map (fun h -> (q, h)) (Cq.find ~tuple:[ s; tt ] ~inj:true inst q))
    (Ucq.disjuncts t.rewriting)

type removal_step = {
  query : Cq.t;
  hom : Subst.t;
  timestamp_multiset : MS.t;
  peak : Term.t option;
}

type removal_outcome = {
  steps : removal_step list;
  valley : (Cq.t * Subst.t) option;
}

let image_instance q h = Instance.of_list (Subst.apply_atoms h (Cq.body q))

let ts_multiset t inst =
  Nca_chase.Chase.timestamp_multiset t.chase_ex (Instance.adom inst)

(* A ≤q-maximal existential variable of a non-valley query. *)
let peak_of q =
  let maxima = Valley.maximal_vars q in
  let answers = Cq.answer_vars q in
  (* first in name order, so the reported peak is byte-stable *)
  match Term.sorted_elements (Term.Set.diff maxima answers) with
  | [] -> None
  | t :: _ -> Some t

let remove_peaks t s tt (q0, h0) =
  let find_witness inst =
    Ucq.witness ~tuple:[ s; tt ] ~inj:true inst t.rewriting
  in
  let rec go (q, h) acc =
    let img = image_instance q h in
    let ts = ts_multiset t img in
    if Valley.is_valley q then
      {
        steps = List.rev ({ query = q; hom = h; timestamp_multiset = ts; peak = None } :: acc);
        valley = Some (q, h);
      }
    else
      match peak_of q with
      | None ->
          (* not a valley yet without an existential peak: cyclic query —
             cannot happen over a DAG chase with an injective hom *)
          { steps = List.rev acc; valley = None }
      | Some z -> (
          let step =
            { query = q; hom = h; timestamp_multiset = ts; peak = Some z }
          in
          let hz = Subst.apply h z in
          match Term.Map.find_opt hz t.chase_ex.Nca_chase.Chase.provenance with
          | None -> { steps = List.rev (step :: acc); valley = None }
          | Some prov ->
              let z_atoms =
                List.filter
                  (fun a -> Term.Set.mem z (Atom.vars a))
                  (Cq.body q)
              in
              let removed =
                Instance.of_list (Subst.apply_atoms h z_atoms)
              in
              let body_image =
                Instance.of_list
                  (Subst.apply_atoms prov.Nca_chase.Chase.hom
                     (Rule.body prov.Nca_chase.Chase.rule))
              in
              let smaller =
                Instance.union (Instance.diff img removed) body_image
              in
              (match find_witness smaller with
              | None -> { steps = List.rev (step :: acc); valley = None }
              | Some (q', h') ->
                  let ts' = ts_multiset t (image_instance q' h') in
                  (* Lemma 40: the timestamp multiset strictly decreases. *)
                  assert (MS.compare_lex ts' ts < 0);
                  go (q', h') (step :: acc)))
  in
  go (q0, h0) []

let valley_witness t s tt =
  let ws = witnesses t s tt in
  match List.find_opt (fun (q, _) -> Valley.is_valley q) ws with
  | Some w -> Some w
  | None -> (
      (* start from the TS-minimal witness, as in the proof of Lemma 40 *)
      let with_ts =
        List.map (fun (q, h) -> (ts_multiset t (image_instance q h), (q, h))) ws
      in
      let sorted =
        List.sort (fun (a, _) (b, _) -> MS.compare_lex a b) with_ts
      in
      match sorted with
      | [] -> None
      | (_, w) :: _ -> (remove_peaks t s tt w).valley)

let color_edges t k =
  let rec pairs acc = function
    | [] -> Some acc
    | v :: rest ->
        let rec each acc = function
          | [] -> Some acc
          | w :: more -> (
              let edge =
                if Instance.mem (Atom.make t.e [ v; w ]) t.full then
                  Some (v, w)
                else if Instance.mem (Atom.make t.e [ w; v ]) t.full then
                  Some (w, v)
                else None
              in
              match edge with
              | None -> None
              | Some (s, tt) -> (
                  match valley_witness t s tt with
                  | None -> None
                  | Some (q, _) -> each (((s, tt), q) :: acc) more))
        in
        Option.bind (each acc rest) (fun acc -> pairs acc rest)
  in
  Option.map List.rev (pairs [] k)

let monochromatic_subtournament t k =
  match color_edges t k with
  | None -> None
  | Some colored ->
      let colors =
        List.sort_uniq Cq.compare (List.map snd colored)
      in
      let best =
        List.fold_left
          (fun best q ->
            let g =
              Nca_graph.Digraph.Term_graph.of_edges
                (List.filter_map
                   (fun (e, q') ->
                     if Cq.compare q q' = 0 then Some e else None)
                   colored)
            in
            let clique = Nca_graph.Tournament.max_tournament g in
            match best with
            | Some (_, c) when List.length c >= List.length clique -> best
            | _ -> Some (q, clique))
          None colors
      in
      best
