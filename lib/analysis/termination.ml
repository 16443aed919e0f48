open Nca_logic
module Acyclicity = Nca_chase.Acyclicity
module Chase = Nca_chase.Chase
module Classes = Nca_surgery.Classes
module Budget = Nca_obs.Budget
module Exhausted = Nca_obs.Exhausted
module Telemetry = Nca_obs.Telemetry
module Provenance = Nca_provenance.Provenance
module Proof = Nca_provenance.Proof
module Intgraph = Nca_graph.Intgraph

type criterion =
  | Datalog
  | Weak_acyclicity
  | Joint_acyclicity
  | Super_weak_acyclicity
  | Mfa

let criterion_name = function
  | Datalog -> "datalog"
  | Weak_acyclicity -> "weak-acyclicity"
  | Joint_acyclicity -> "joint-acyclicity"
  | Super_weak_acyclicity -> "super-weak-acyclicity"
  | Mfa -> "mfa"

let pp_criterion ppf c = Fmt.string ppf (criterion_name c)

type vertex = int * Term.t

type mfa_run = {
  mfa_depth : int;
  mfa_atoms : int;
  mfa_proof : Nca_provenance.Proof.t option;
}

type certificate =
  | Datalog_cert
  | Ranking of (Nca_chase.Acyclicity.position * int) list
  | Ja_order of vertex list
  | Swa_order of int list
  | Critical_chase of mfa_run

type witness = { w_rule : int; w_var : Term.t; w_hom : Subst.t }

type verdict =
  | Terminating of criterion * certificate
  | Non_terminating of witness
  | Unknown of Nca_obs.Exhausted.t

type t = {
  rules : Rule.t list;
  classes : Nca_surgery.Classes.t;
  jointly_acyclic : bool;
  ja_cycle : vertex list option;
  super_weakly_acyclic : bool;
  swa_cycle : int list option;
  mfa : bool option;
  cyclic_term : (int * Term.t) option;
  verdict : verdict;
}

(* ------------------------------------------------------------------ *)
(* Shared position machinery                                           *)

let positions_of_var atoms x =
  List.concat_map
    (fun a ->
      List.mapi
        (fun i t -> if Term.equal t x then Some (Atom.pred a, i) else None)
        (Atom.args a)
      |> List.filter_map Fun.id)
    atoms

module PosSet = Set.Make (struct
  type t = Symbol.t * int

  let compare (p, i) (q, j) =
    match Symbol.compare p q with 0 -> Int.compare i j | c -> c
end)

module PosMap = Map.Make (struct
  type t = Acyclicity.position

  let compare = Acyclicity.compare_positions
end)

let rule_name rules i =
  match List.nth_opt rules i with Some r -> Rule.name r | None -> "?"

(* ------------------------------------------------------------------ *)
(* Weak acyclicity: the ranking certificate                            *)

(* ρ(v) = the maximum number of special edges on any path ending at v —
   a Bellman–Ford-style fixpoint over the edge list. When the rule set
   is weakly acyclic the values are bounded by the number of special
   edges; a value beyond that bound witnesses a special cycle. *)
let ranking rules =
  let edges = Acyclicity.dependency_graph rules in
  let specials =
    List.length (List.filter (fun (e : Acyclicity.edge) -> e.special) edges)
  in
  let init =
    List.fold_left
      (fun m (e : Acyclicity.edge) ->
        PosMap.add e.source 0 (PosMap.add e.target 0 m))
      PosMap.empty edges
  in
  let rec fix m =
    let changed = ref false in
    let m =
      List.fold_left
        (fun m (e : Acyclicity.edge) ->
          let s = PosMap.find e.source m and t = PosMap.find e.target m in
          let need = s + if e.special then 1 else 0 in
          if t < need then begin
            changed := true;
            PosMap.add e.target need m
          end
          else m)
        m edges
    in
    if not !changed then Some m
    else if PosMap.exists (fun _ v -> v > specials) m then None
    else fix m
  in
  Option.map PosMap.bindings (fix init)

let check_ranking rules rho =
  let rank = List.fold_left (fun m (p, k) -> PosMap.add p k m) PosMap.empty rho in
  let edges = Acyclicity.dependency_graph rules in
  List.fold_left
    (fun acc (e : Acyclicity.edge) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match (PosMap.find_opt e.source rank, PosMap.find_opt e.target rank)
          with
          | None, _ | _, None ->
              Error
                (Fmt.str "ranking: no rank for position %a or %a"
                   Acyclicity.pp_position e.source Acyclicity.pp_position
                   e.target)
          | Some s, Some t ->
              if e.special && s >= t then
                Error
                  (Fmt.str
                     "ranking: special edge %a → %a not strictly increasing \
                      (%d ≥ %d)"
                     Acyclicity.pp_position e.source Acyclicity.pp_position
                     e.target s t)
              else if (not e.special) && s > t then
                Error
                  (Fmt.str "ranking: regular edge %a → %a decreasing (%d > %d)"
                     Acyclicity.pp_position e.source Acyclicity.pp_position
                     e.target s t)
              else Ok ()))
    (Ok ()) edges

(* ------------------------------------------------------------------ *)
(* Joint acyclicity: the existential-variable dependency graph         *)

(* Move(z): the least set of positions containing the head positions of
   z and closed under frontier propagation — whenever every body
   position of a frontier variable y (of any rule) lies in the set, y's
   head positions join it [Krötzsch & Rudolph]. *)
let move_of rules seed =
  let rec fix mv =
    let mv' =
      List.fold_left
        (fun mv r ->
          Term.Set.fold
            (fun y mv ->
              let bodyp = positions_of_var (Rule.body r) y in
              if List.for_all (fun p -> PosSet.mem p mv) bodyp then
                List.fold_left
                  (fun mv p -> PosSet.add p mv)
                  mv
                  (positions_of_var (Rule.head r) y)
              else mv)
            (Rule.frontier r) mv)
        mv rules
    in
    if PosSet.equal mv' mv then mv else fix mv'
  in
  fix (PosSet.of_list seed)

let ja_vertices rules =
  List.concat
    (List.mapi
       (fun k r ->
         List.map (fun z -> (k, z)) (Term.sorted_elements (Rule.exist_vars r)))
       rules)

(* Move sets for every (rule, existential variable) vertex. *)
let moves rules =
  let arr = Array.of_list rules in
  List.map
    (fun (k, z) ->
      ((k, z), move_of rules (positions_of_var (Rule.head arr.(k)) z)))
    (ja_vertices rules)

(* [feeds mv r]: can a null placed at the positions of [mv] reach every
   body position of some frontier variable of [r]? *)
let feeds mv r =
  Term.Set.exists
    (fun y ->
      List.for_all
        (fun p -> PosSet.mem p mv)
        (positions_of_var (Rule.body r) y))
    (Rule.frontier r)

let ja_edges rules =
  let arr = Array.of_list rules in
  let mvs = moves rules in
  List.concat_map
    (fun (v, mv) ->
      List.filter_map
        (fun ((k', _) as v', _) ->
          if feeds mv arr.(k') then Some (v, v') else None)
        mvs)
    mvs

let swa_edges rules =
  let arr = Array.of_list rules in
  let erules =
    List.filter
      (fun k -> not (Rule.is_datalog arr.(k)))
      (List.init (Array.length arr) Fun.id)
  in
  let mvs = moves rules in
  List.concat_map
    (fun ((k, _), mv) ->
      List.filter_map
        (fun k' -> if feeds mv arr.(k') then Some (k, k') else None)
        erules)
    mvs
  |> List.sort_uniq compare

(* Topological order / cycle of a vertex list under an edge list, via a
   dense interned graph. *)
let analyze_graph vertices edges index_of =
  let arr = Array.of_list vertices in
  let g = Intgraph.create (Array.length arr) in
  List.iter (fun (u, v) -> Intgraph.add_edge g (index_of u) (index_of v)) edges;
  match Intgraph.topo_sort g with
  | Some o -> (true, Some (List.map (fun i -> arr.(i)) o), None)
  | None ->
      let c = Option.get (Intgraph.find_cycle g) in
      (false, None, Some (List.map (fun i -> arr.(i)) c))

let ja_analysis rules =
  let vs = ja_vertices rules in
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i (k, z) -> Hashtbl.replace tbl (k, Term.code z) i) vs;
  analyze_graph vs (ja_edges rules) (fun (k, z) ->
      Hashtbl.find tbl (k, Term.code z))

let swa_analysis rules =
  let arr = Array.of_list rules in
  let erules =
    List.filter
      (fun k -> not (Rule.is_datalog arr.(k)))
      (List.init (Array.length arr) Fun.id)
  in
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i k -> Hashtbl.replace tbl k i) erules;
  analyze_graph erules (swa_edges rules) (Hashtbl.find tbl)

let check_topo ~what ~pp_v equal vertices edges order =
  let index v = List.find_index (equal v) order in
  if List.length order <> List.length vertices then
    Error (what ^ ": order and vertex set differ in size")
  else if not (List.for_all (fun v -> Option.is_some (index v)) vertices) then
    Error (what ^ ": order is missing a vertex")
  else
    List.fold_left
      (fun acc (u, v) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            let iu = Option.get (index u) and iv = Option.get (index v) in
            if iu < iv then Ok ()
            else
              Error
                (Fmt.str "%s: edge %a → %a violates the order" what pp_v u pp_v
                   v))
      (Ok ()) edges

(* ------------------------------------------------------------------ *)
(* MFA: the critical-instance chase                                    *)

let default_budget = Budget.v ~max_depth:16 ~max_atoms:10_000 ()

let critical_of rules = Instance.critical (Rule.signature rules)

(* The (rule, existential variable) that created a null, read off the
   chase's per-null provenance. *)
let creator (c : Chase.t) n =
  Option.bind (Term.Map.find_opt n c.provenance)
    (fun (p : Chase.provenance) ->
      List.find_map
        (fun (z, t) -> if Term.equal t n then Some (p.rule, z, p.hom) else None)
        (Subst.bindings p.extension))

let rule_index rules r =
  let rec go i = function
    | [] -> None
    | r' :: tl -> if Rule.equal r r' then Some i else go (i + 1) tl
  in
  go 0 rules

(* A cyclic term: a null whose provenance ancestry (the nulls in the
   range of the creating homomorphism, transitively) contains a null
   created by the same rule and existential variable — the classical
   MFA failure condition, used here as an early abort. *)
let cyclic_term rules (c : Chase.t) =
  let parents n =
    match Term.Map.find_opt n c.provenance with
    | None -> []
    | Some (p : Chase.provenance) ->
        Term.Set.elements (Term.Set.filter Term.is_null (Subst.range p.hom))
  in
  let same_creator r z n' =
    match creator c n' with
    | Some (r', z', _) -> Rule.equal r r' && Term.equal z z'
    | None -> false
  in
  let cyclic r z hom =
    let rec go seen = function
      | [] -> false
      | n :: rest ->
          if Term.Set.mem n seen then go seen rest
          else if same_creator r z n then true
          else go (Term.Set.add n seen) (parents n @ rest)
    in
    go Term.Set.empty
      (Term.Set.elements (Term.Set.filter Term.is_null (Subst.range hom)))
  in
  Term.Map.fold
    (fun n _ acc ->
      match acc with
      | Some _ -> acc
      | None -> (
          match creator c n with
          | None -> None
          | Some (r, z, hom) ->
              if cyclic r z hom then
                Option.map (fun i -> (i, z)) (rule_index rules r)
              else None))
    c.provenance None

(* A derived fact of the chase with maximal round, smallest structural
   atom among ties — the deterministic root of the MFA proof. *)
let max_round_fact (c : Chase.t) =
  Provenance.fold
    (fun fact (e : Nca_provenance.Provenance.entry) acc ->
      if not (Instance.mem fact c.instance) then acc
      else
        match acc with
        | Some (_, r) when r > e.round -> acc
        | Some (f, r) when r = e.round ->
            if Atom.compare_structural fact f < 0 then Some (fact, e.round)
            else acc
        | _ -> Some (fact, e.round))
    None

let run_mfa budget rules =
  Telemetry.span "classify.mfa" @@ fun () ->
  let critical = critical_of rules in
  let already = Provenance.enabled () in
  if not already then Provenance.enable ();
  Fun.protect
    ~finally:(fun () -> if not already then Provenance.disable ())
    (fun () ->
      let chase =
        Chase.run ~variant:Semi_oblivious ~max_depth:1_000_000
          ~max_atoms:1_000_000 ~budget critical rules
      in
      Telemetry.count "classify.mfa.atoms" (Instance.cardinal chase.instance);
      Telemetry.count "classify.mfa.depth" chase.depth;
      let proof =
        if not chase.saturated then None
        else
          Option.bind (max_round_fact chase) (fun (fact, _) ->
              let p = Proof.of_fact fact in
              match Proof.check ~rules ~input:critical p with
              | Ok () -> Some p
              | Error _ -> None)
      in
      (chase, proof))

let check_mfa rules { mfa_depth; mfa_atoms; mfa_proof } =
  let critical = critical_of rules in
  let chase =
    Chase.run ~variant:Semi_oblivious ~max_depth:(mfa_depth + 1)
      ~max_atoms:(mfa_atoms + 1)
      ~budget:Budget.unlimited critical rules
  in
  if not chase.saturated then
    Error "mfa: the critical chase does not saturate within the recorded bounds"
  else if chase.depth <> mfa_depth then
    Error
      (Fmt.str "mfa: saturation depth %d does not match the recorded %d"
         chase.depth mfa_depth)
  else if Instance.cardinal chase.instance <> mfa_atoms then
    Error
      (Fmt.str "mfa: %d atoms do not match the recorded %d"
         (Instance.cardinal chase.instance)
         mfa_atoms)
  else
    match mfa_proof with
    | None -> Ok ()
    | Some p ->
        Result.map_error
          (fun (e : Proof.error) -> Fmt.str "mfa proof: %a" Proof.pp_error e)
          (Proof.check ~rules ~input:critical p)

(* ------------------------------------------------------------------ *)
(* Non-termination: the pumping witness                                *)

(* A homomorphism h : body(r) → body(r) ∪ head(r) sending a frontier
   variable to an existential variable. On the critical instance the
   rule fires (every atom over [*] is present); composing the firing's
   extended homomorphism with h yields a new semi-oblivious trigger
   whose frontier image contains the null just invented — so the rule
   fires forever, inventing a fresh null each round. *)
let find_witness rules =
  Telemetry.span "classify.witness" @@ fun () ->
  let indexed = List.mapi (fun i r -> (i, r)) rules in
  List.find_map
    (fun (i, r) ->
      let exist = Rule.exist_vars r in
      if Term.Set.is_empty exist then None
      else begin
        let tgt = Instance.of_list (Rule.body r @ Rule.head r) in
        let frontier = Term.sorted_elements (Rule.frontier r) in
        let found = ref None in
        Hom.iter (Rule.body r) tgt (fun h ->
            if Option.is_none !found then
              match
                List.find_opt
                  (fun y -> Term.Set.mem (Subst.apply h y) exist)
                  frontier
              with
              | Some y -> found := Some { w_rule = i; w_var = y; w_hom = h }
              | None -> ());
        !found
      end)
    indexed

let check_witness rules w =
  match List.nth_opt rules w.w_rule with
  | None -> Error "witness: rule index out of range"
  | Some r ->
      let body = Rule.body r and head = Rule.head r in
      let atoms = Atom.Set.of_list (body @ head) in
      let image = Subst.apply_atoms w.w_hom body in
      if not (List.for_all (fun a -> Atom.Set.mem a atoms) image) then
        Error "witness: homomorphism does not map the body into body ∪ head"
      else if not (Term.Set.mem w.w_var (Rule.frontier r)) then
        Error "witness: pumped variable is not in the frontier"
      else if
        not (Term.Set.mem (Subst.apply w.w_hom w.w_var) (Rule.exist_vars r))
      then Error "witness: pumped variable is not sent to an existential"
      else Ok ()

(* ------------------------------------------------------------------ *)
(* The referee                                                         *)

let vertex_equal (k, z) (k', z') = k = k' && Term.equal z z'

let check rules verdict =
  match verdict with
  | Terminating (Datalog, Datalog_cert) ->
      if List.for_all Rule.is_datalog rules then Ok ()
      else Error "datalog: an existential rule remains"
  | Terminating (Weak_acyclicity, Ranking rho) -> check_ranking rules rho
  | Terminating (Joint_acyclicity, Ja_order o) ->
      check_topo ~what:"joint acyclicity"
        ~pp_v:(fun ppf (k, z) -> Fmt.pf ppf "%s#%d.%a" (rule_name rules k) k Term.pp z)
        vertex_equal (ja_vertices rules) (ja_edges rules) o
  | Terminating (Super_weak_acyclicity, Swa_order o) ->
      let arr = Array.of_list rules in
      let erules =
        List.filter
          (fun k -> not (Rule.is_datalog arr.(k)))
          (List.init (Array.length arr) Fun.id)
      in
      check_topo ~what:"super-weak acyclicity"
        ~pp_v:(fun ppf k -> Fmt.pf ppf "%s#%d" (rule_name rules k) k)
        Int.equal erules (swa_edges rules) o
  | Terminating (Mfa, Critical_chase run) -> check_mfa rules run
  | Terminating (c, _) ->
      Error
        (Fmt.str "criterion %s carries a certificate of a different kind"
           (criterion_name c))
  | Non_terminating w -> check_witness rules w
  | Unknown _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* The classifier                                                      *)

let classify ?(budget = default_budget) rules =
  Telemetry.span "classify" @@ fun () ->
  Telemetry.incr "classify.runs";
  let classes = Classes.classify rules in
  let (ja_ok, ja_ord, ja_cyc), (swa_ok, swa_ord, swa_cyc) =
    Telemetry.span "classify.hierarchy" (fun () ->
        (ja_analysis rules, swa_analysis rules))
  in
  let verdict, mfa, cyc =
    if classes.datalog then (Terminating (Datalog, Datalog_cert), Some true, None)
    else if classes.weakly_acyclic then
      match ranking rules with
      | Some rho ->
          (Terminating (Weak_acyclicity, Ranking rho), Some true, None)
      | None ->
          (* unreachable: the ranking exists iff the set is WA *)
          (Unknown (Nca_obs.Exhausted.cancelled), None, None)
    else if ja_ok then
      (Terminating (Joint_acyclicity, Ja_order (Option.get ja_ord)), Some true, None)
    else if swa_ok then
      ( Terminating (Super_weak_acyclicity, Swa_order (Option.get swa_ord)),
        Some true,
        None )
    else begin
      (* every static test failed: probe the critical chase shallowly
         for a cyclic term, then commit the budget to the full run *)
      let probe =
        Telemetry.span "classify.probe" (fun () ->
            Chase.run ~variant:Semi_oblivious ~max_depth:3 ~max_atoms:2_000
              ~budget (critical_of rules) rules)
      in
      let probe_cyc =
        if probe.saturated then None else cyclic_term rules probe
      in
      let full =
        if probe.saturated || Option.is_none probe_cyc then
          Some (run_mfa budget rules)
        else None
      in
      match full with
      | Some (chase, proof) when chase.saturated ->
          let run =
            {
              mfa_depth = chase.depth;
              mfa_atoms = Instance.cardinal chase.instance;
              mfa_proof = proof;
            }
          in
          (Terminating (Mfa, Critical_chase run), Some true, None)
      | _ ->
          let cyc =
            match probe_cyc with
            | Some _ -> probe_cyc
            | None ->
                Option.bind full (fun (chase, _) -> cyclic_term rules chase)
          in
          let mfa = if Option.is_some cyc then Some false else None in
          let stopped =
            match full with
            | Some (chase, _) -> Option.get chase.stopped
            | None -> Option.get probe.stopped
          in
          (match find_witness rules with
          | Some w -> (Non_terminating w, mfa, cyc)
          | None -> (Unknown stopped, mfa, cyc))
    end
  in
  (match Telemetry.span "classify.check" (fun () -> check rules verdict) with
  | Ok () -> ()
  | Error e ->
      invalid_arg ("Termination.classify: certificate failed verification: " ^ e));
  (match verdict with
  | Terminating _ -> Telemetry.incr "classify.terminating"
  | Non_terminating _ -> Telemetry.incr "classify.non_terminating"
  | Unknown _ -> Telemetry.incr "classify.unknown");
  {
    rules;
    classes;
    jointly_acyclic = ja_ok;
    ja_cycle = ja_cyc;
    super_weakly_acyclic = swa_ok;
    swa_cycle = swa_cyc;
    mfa;
    cyclic_term = cyc;
    verdict;
  }

let cache : (Rule.t list * t) option ref = ref None

let classify_cached rules =
  match !cache with
  | Some (rs, t)
    when List.length rs = List.length rules && List.for_all2 Rule.equal rs rules
    ->
      t
  | _ ->
      let t = classify rules in
      cache := Some (rules, t);
      t

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let pp_vertex rules ppf (k, z) =
  Fmt.pf ppf "%s#%d.%a" (rule_name rules k) k Term.pp z

let pp_certificate rules ppf = function
  | Datalog_cert -> Fmt.string ppf "every rule is Datalog"
  | Ranking rho ->
      Fmt.pf ppf "position ranking: %a"
        Fmt.(
          list ~sep:(any ", ") (fun ppf (p, k) ->
              Fmt.pf ppf "%a=%d" Acyclicity.pp_position p k))
        rho
  | Ja_order o ->
      Fmt.pf ppf "existential-variable order: %a"
        Fmt.(list ~sep:(any " ≺ ") (pp_vertex rules))
        o
  | Swa_order o ->
      Fmt.pf ppf "trigger order: %a"
        Fmt.(
          list ~sep:(any " ≺ ") (fun ppf k ->
              Fmt.pf ppf "%s#%d" (rule_name rules k) k))
        o
  | Critical_chase m ->
      Fmt.pf ppf "critical-instance chase saturates: depth %d, %d atoms%s"
        m.mfa_depth m.mfa_atoms
        (match m.mfa_proof with
        | Some _ -> ", proof attached"
        | None -> "")

let pp_witness rules ppf w =
  let bindings =
    List.sort
      (fun (a, _) (b, _) -> Term.compare_names a b)
      (Subst.bindings w.w_hom)
  in
  Fmt.pf ppf "rule %s#%d pumps frontier variable %a into %a via {%a}"
    (rule_name rules w.w_rule)
    w.w_rule Term.pp w.w_var Term.pp
    (Subst.apply w.w_hom w.w_var)
    Fmt.(
      list ~sep:(any ", ") (fun ppf (x, t) ->
          Fmt.pf ppf "%a ↦ %a" Term.pp x Term.pp t))
    bindings

let pp_verdict rules ppf = function
  | Terminating (c, cert) ->
      Fmt.pf ppf "terminating via %a@,certificate: %a" pp_criterion c
        (pp_certificate rules) cert
  | Non_terminating w ->
      Fmt.pf ppf "non-terminating@,witness: %a" (pp_witness rules) w
  | Unknown e -> Fmt.pf ppf "unknown: %a" Nca_obs.Exhausted.pp e

let yn = function true -> "yes" | false -> "no"
let yn_opt = function Some b -> yn b | None -> "unknown"

let pp ppf t =
  let datalog, existential = Rule.split_datalog t.rules in
  Fmt.pf ppf "@[<v>rules: %d (%d datalog, %d existential)@,classes: %a@,"
    (List.length t.rules) (List.length datalog) (List.length existential)
    Classes.pp t.classes;
  Fmt.pf ppf
    "hierarchy: weakly-acyclic=%s jointly-acyclic=%s super-weakly-acyclic=%s \
     mfa=%s@,"
    (yn t.classes.weakly_acyclic)
    (yn t.jointly_acyclic)
    (yn t.super_weakly_acyclic)
    (yn_opt t.mfa);
  (match t.cyclic_term with
  | Some (k, z) ->
      Fmt.pf ppf "cyclic term: rule %s#%d nests the nulls it invents for %a@,"
        (rule_name t.rules k) k Term.pp z
  | None -> ());
  Fmt.pf ppf "verdict: %a@]" (pp_verdict t.rules) t.verdict

let json_of_certificate rules = function
  | Datalog_cert -> Json.Obj [ ("kind", Json.String "datalog") ]
  | Ranking rho ->
      Json.Obj
        [
          ("kind", Json.String "ranking");
          ( "ranks",
            Json.List
              (List.map
                 (fun (p, k) ->
                   Json.Obj
                     [
                       ( "position",
                         Json.String (Fmt.str "%a" Acyclicity.pp_position p) );
                       ("rank", Json.Int k);
                     ])
                 rho) );
        ]
  | Ja_order o ->
      Json.Obj
        [
          ("kind", Json.String "ja-order");
          ( "order",
            Json.List
              (List.map
                 (fun v ->
                   Json.String (Fmt.str "%a" (pp_vertex rules) v))
                 o) );
        ]
  | Swa_order o ->
      Json.Obj
        [
          ("kind", Json.String "swa-order");
          ("order", Json.List (List.map (fun k -> Json.Int k) o));
        ]
  | Critical_chase m ->
      Json.Obj
        [
          ("kind", Json.String "critical-chase");
          ("depth", Json.Int m.mfa_depth);
          ("atoms", Json.Int m.mfa_atoms);
          ("proof", Json.Bool (Option.is_some m.mfa_proof));
        ]

let to_json t =
  let c = t.classes in
  let verdict =
    match t.verdict with
    | Terminating (crit, cert) ->
        Json.Obj
          [
            ("status", Json.String "terminating");
            ("criterion", Json.String (criterion_name crit));
            ("certificate", json_of_certificate t.rules cert);
          ]
    | Non_terminating w ->
        let bindings =
          List.sort
            (fun (a, _) (b, _) -> Term.compare_names a b)
            (Subst.bindings w.w_hom)
        in
        Json.Obj
          [
            ("status", Json.String "non-terminating");
            ( "witness",
              Json.Obj
                [
                  ("rule", Json.Int w.w_rule);
                  ("rule_name", Json.String (rule_name t.rules w.w_rule));
                  ("var", Json.String (Term.name w.w_var));
                  ( "maps_to",
                    Json.String (Term.name (Subst.apply w.w_hom w.w_var)) );
                  ( "hom",
                    Json.List
                      (List.map
                         (fun (x, v) ->
                           Json.Obj
                             [
                               ("from", Json.String (Term.name x));
                               ("to", Json.String (Term.name v));
                             ])
                         bindings) );
                ] );
          ]
    | Unknown e ->
        Json.Obj
          [
            ("status", Json.String "unknown");
            ("resource", Json.String (Nca_obs.Exhausted.tag e));
            ("limit", Json.Int e.limit);
            ("used", Json.Int e.used);
          ]
  in
  Json.Obj
    [
      ("schema", Json.String "nocliques/classify/v1");
      ("rules", Json.Int (List.length t.rules));
      ( "classes",
        Json.Obj
          [
            ("linear", Json.Bool c.linear);
            ("guarded", Json.Bool c.guarded);
            ("frontier_guarded", Json.Bool c.frontier_guarded);
            ("sticky", Json.Bool c.sticky);
            ("datalog", Json.Bool c.datalog);
          ] );
      ( "hierarchy",
        Json.Obj
          [
            ("weakly_acyclic", Json.Bool c.weakly_acyclic);
            ("jointly_acyclic", Json.Bool t.jointly_acyclic);
            ("super_weakly_acyclic", Json.Bool t.super_weakly_acyclic);
            ( "mfa",
              match t.mfa with Some b -> Json.Bool b | None -> Json.Null );
          ] );
      ( "cyclic_term",
        match t.cyclic_term with
        | Some (k, z) ->
            Json.Obj
              [
                ("rule", Json.Int k);
                ("rule_name", Json.String (rule_name t.rules k));
                ("var", Json.String (Term.name z));
              ]
        | None -> Json.Null );
      ("verdict", verdict);
    ]
