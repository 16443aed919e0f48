open Nca_logic

type provenance = {
  rule : Rule.t;
  hom : Subst.t;
  extension : Subst.t;
  level : int;
}

type t = {
  instance : Instance.t;
  levels : Instance.t list;
  depth : int;
  saturated : bool;
  stopped : Nca_obs.Exhausted.t option;
  timestamps : int Term.Map.t;
  provenance : provenance Term.Map.t;
}

let stamp_terms level terms stamps =
  Term.Set.fold
    (fun t acc ->
      if Term.Map.mem t acc then acc else Term.Map.add t level acc)
    terms stamps

type variant = Oblivious | Semi_oblivious | Restricted

let satisfied tr inst =
  let rule = tr.Trigger.rule in
  let init = Subst.restrict (Rule.frontier rule) tr.Trigger.hom in
  Nca_plan.Exec.exists ~init (Rule.head rule) inst

module Keytbl = Hashtbl.Make (Trigger.Key)

(* timeline labels, interned once at load so tracing never re-hashes *)
let ev_round = Nca_obs.Events.label "chase.round.boundary"
let ev_stop = Nca_obs.Events.label "budget.stop"

(* Delta-driven: each round only enumerates the triggers whose body uses
   an atom created in the previous round ([Trigger.all_delta]); triggers
   entirely over older levels were enumerated — and recorded in [fired] —
   when their last atom appeared. The first round runs with
   [delta = start], i.e. every trigger over the input. *)
let run ?(variant = Oblivious) ?max_depth ?max_atoms
    ?(budget = Nca_obs.Budget.unlimited) start rules =
  (* one governor for every bound: the legacy [max_depth]/[max_atoms]
     arguments and the caller's budget intersect to the tighter value *)
  let budget =
    Nca_obs.Budget.intersect budget
      (Nca_obs.Budget.v
         ~max_depth:(Option.value ~default:8 max_depth)
         ~max_atoms:(Option.value ~default:20000 max_atoms)
         ())
  in
  let fired = Keytbl.create 256 in
  let rec go current delta levels_rev level stamps prov =
    let stop =
      match Nca_obs.Budget.interrupted budget with
      | Some _ as e -> e
      | None -> Nca_obs.Budget.depth budget ~used:level
    in
    match stop with
    | Some _ ->
        Nca_obs.Events.instant ev_stop;
        finish current levels_rev stamps prov ~saturated:false ~stopped:stop
    | None -> (
        Nca_obs.Events.instant ev_round ~arg:level;
        let mt = Nca_obs.Metrics.enabled () in
        let t0 = if mt then Nca_obs.Events.now_us () else 0 in
        let round =
          Nca_obs.Telemetry.span "chase.round" @@ fun () ->
          (* Each trigger is filtered and merged as it is enumerated: the
             enumeration reads only the round's snapshots ([current],
             [delta] and their difference), creates no atom or null, and
             [satisfied] tests [current], so streaming fires the same
             triggers in the same order as filtering a materialised list. *)
          let fresh tr =
            let k =
              match variant with
              | Semi_oblivious -> Trigger.frontier_key tr
              | Oblivious | Restricted -> Trigger.key tr
            in
            if Keytbl.mem fired k then false
            else begin
              (* a satisfied head stays satisfied forever: never
                 reconsider the trigger either way *)
              Keytbl.add fired k ();
              not (variant = Restricted && satisfied tr current)
            end
          in
          (* the next delta is accumulated from the trigger outputs, so a
             round costs O(new atoms), not a sweep of the whole instance *)
          let merge ((inst, d), stamps, prov) tr =
            let out, ext = Trigger.output tr in
            let prov =
              Term.Set.fold
                (fun z acc ->
                  let created = Subst.apply ext z in
                  Term.Map.add created
                    {
                      rule = tr.Trigger.rule;
                      hom = tr.Trigger.hom;
                      extension = ext;
                      level = level + 1;
                    }
                    acc)
                (Rule.exist_vars tr.Trigger.rule)
                prov
            in
            (* fact-level provenance: the stored hom is the full
               extension, so one substitution instantiates both the
               body (→ parents) and the head (→ the fact) *)
            let record =
              if Nca_provenance.Provenance.enabled () then begin
                let rule = tr.Trigger.rule in
                let parents =
                  Subst.apply_atoms tr.Trigger.hom (Rule.body rule)
                in
                fun a ->
                  Nca_provenance.Provenance.record a ~rule ~hom:ext
                    ~round:(level + 1) ~parents
              end
              else fun _ -> ()
            in
            let inst, d =
              Instance.fold
                (fun a (inst, d) ->
                  if Instance.mem a inst then (inst, d)
                  else begin
                    record a;
                    (Instance.add a inst, Instance.add a d)
                  end)
                out (inst, d)
            in
            ( (inst, d),
              stamp_terms (level + 1) (Instance.adom out) stamps,
              prov )
          in
          let ntr = ref 0 in
          let acc = ref ((current, Instance.empty), stamps, prov) in
          Trigger.iter_delta rules ~total:current ~delta (fun tr ->
              if fresh tr then begin
                incr ntr;
                acc := merge !acc tr
              end);
          if !ntr = 0 then `Saturated
          else begin
            let (next, delta'), stamps, prov = !acc in
            if Nca_obs.Telemetry.enabled () || Nca_obs.Metrics.enabled ()
            then begin
              Nca_obs.Telemetry.count "chase.triggers" !ntr;
              Nca_obs.Telemetry.count "chase.atoms" (Instance.cardinal delta');
              Nca_obs.Metrics.observe "chase.trigger_batch" !ntr
            end;
            `Round (next, delta', stamps, prov)
          end
        in
        if mt then
          Nca_obs.Metrics.observe "chase.round_us"
            (Nca_obs.Events.now_us () - t0);
        match round with
        | `Saturated ->
            finish current levels_rev stamps prov ~saturated:true
              ~stopped:None
        | `Round (next, delta', stamps, prov) -> (
            match
              Nca_obs.Budget.atoms budget ~used:(Instance.cardinal next)
            with
            | Some _ as stop ->
                finish next (next :: levels_rev) stamps prov ~saturated:false
                  ~stopped:stop
            | None ->
                go next delta' (next :: levels_rev) (level + 1) stamps prov))
  and finish instance levels_rev stamps prov ~saturated ~stopped =
    let levels = List.rev levels_rev in
    Nca_obs.Telemetry.count "chase.rounds" (List.length levels - 1);
    {
      instance;
      levels;
      depth = List.length levels - 1;
      saturated;
      stopped;
      timestamps = stamps;
      provenance = prov;
    }
  in
  let stamps = stamp_terms 0 (Instance.adom start) Term.Map.empty in
  Nca_obs.Telemetry.span "chase" @@ fun () ->
  go start start [ start ] 0 stamps Term.Map.empty

let level c k =
  let k = max 0 k in
  let rec nth i = function
    | [] -> c.instance
    | [ last ] -> last
    | x :: rest -> if i = k then x else nth (i + 1) rest
  in
  nth 0 c.levels

let timestamp c t = Term.Map.find_opt t c.timestamps

let timestamp_multiset c terms =
  Nca_graph.Multiset.Int_multiset.of_list
    (List.filter_map (timestamp c) (Term.Set.elements terms))

let terms c = Instance.adom c.instance

let invented c =
  match c.levels with
  | [] -> Term.Set.empty
  | start :: _ -> Term.Set.diff (terms c) (Instance.adom start)

let entails ?tuple c q = Cq.holds ?tuple c.instance q

let holds_at c q =
  let rec go k = function
    | [] -> None
    | l :: rest -> if Cq.holds l q then Some k else go (k + 1) rest
  in
  go 0 c.levels

let e_graph e c = Nca_graph.Digraph.of_instance e c.instance

(* A depth-stop is the requested exploration bound, not an anomaly, so it
   stays silent as in the seed; an atoms-stop keeps the seed's
   " truncated" byte-for-byte; only the new (wall-clock/cancel) verdicts
   print their resource. *)
let pp_stop ppf = function
  | None -> ()
  | Some e -> (
      match e.Nca_obs.Exhausted.resource with
      | Nca_obs.Exhausted.Depth -> ()
      | Nca_obs.Exhausted.Atoms -> Fmt.string ppf " truncated"
      | _ -> Fmt.pf ppf " stopped:%s" (Nca_obs.Exhausted.tag e))

let pp_stats ppf c =
  Fmt.pf ppf "depth=%d atoms=%d terms=%d%s%a" c.depth
    (Instance.cardinal c.instance)
    (Term.Set.cardinal (terms c))
    (if c.saturated then " saturated" else "")
    pp_stop c.stopped
