open Nca_logic
module Chase = Nca_chase.Chase
module Finite_model = Nca_chase.Finite_model
module Acyclicity = Nca_chase.Acyclicity
module Bdd = Nca_rewriting.Bdd
module Pipeline = Nca_surgery.Pipeline
module Properties = Nca_surgery.Properties
module Rulesets = Nca_core.Rulesets
module Theorem1 = Nca_core.Theorem1
module Witness = Nca_core.Witness
module Valley = Nca_core.Valley
module Certificate = Nca_core.Certificate
module Lint = Nca_analysis.Lint
module Passes = Nca_analysis.Passes
module Json = Nca_analysis.Json
module Proof_report = Nca_analysis.Proof_report
module Termination = Nca_analysis.Termination
module Budget = Nca_obs.Budget
module Exhausted = Nca_obs.Exhausted
module Provenance = Nca_provenance.Provenance
module Proof = Nca_provenance.Proof
module Dot = Nca_graph.Dot
module Digraph = Nca_graph.Digraph
module Tournament = Nca_graph.Tournament
open Epilogue

(* an optional artefact, rendered only when requested *)
let artefact path content =
  Option.map (fun path -> { path; content = content (); note = None }) path

(* a DOT document for [-o]: stdout by default, a [note] line on stdout
   once it is written to a file *)
let dot_artefact ~note out content =
  match out with
  | None -> { path = "-"; content; note = None }
  | Some path -> { path; content; note = Some (note path) }

(* proof artefacts (--proof-json / --proof-dot) *)

let proof_artefacts proofs ~json ~dot =
  List.filter_map Fun.id
    [
      artefact proofs.proof_json (fun () -> Json.to_string (json ()) ^ "\n");
      artefact proofs.proof_dot dot;
    ]

let proof_outcome proofs p =
  written
    (proof_artefacts proofs
       ~json:(fun () -> Proof_report.of_proof p)
       ~dot:(fun () -> Proof.to_dot p))

(* The deepest derived fact of the ambient store: maximum round,
   ties broken structurally so the choice is byte-stable. *)
let deepest_fact () =
  Provenance.fold
    (fun a (e : Provenance.entry) best ->
      match best with
      | None -> Some (a, e.Provenance.round)
      | Some (b, r) ->
          if
            e.Provenance.round > r
            || (e.Provenance.round = r && Atom.compare_structural a b < 0)
          then Some (a, e.Provenance.round)
          else best)
    None

(* One DOT document for a whole certificate: the union of its support
   DAGs (each distinct fact once). *)
let certificate_dot (c : Certificate.t) =
  let seen = Hashtbl.create 64 in
  let label a = Fmt.str "%a" Atom.pp a in
  let nodes, edges =
    List.fold_left
      (fun acc p ->
        Proof.fold_distinct
          (fun (nodes, edges) (node : Proof.t) ->
            let id = label node.Proof.fact in
            if Hashtbl.mem seen id then (nodes, edges)
            else begin
              Hashtbl.add seen id ();
              let kind =
                match node.Proof.rule with
                | None -> `Input
                | Some _ -> `Derived
              in
              let edges =
                match node.Proof.rule with
                | None -> edges
                | Some r ->
                    List.fold_left
                      (fun edges (p : Proof.t) ->
                        let e =
                          (label p.Proof.fact, id, Some (Rule.name r))
                        in
                        if List.mem e edges then edges else e :: edges)
                      edges node.Proof.premises
              in
              ((id, id, kind) :: nodes, edges)
            end)
          acc p)
      ([], []) c.Certificate.support
  in
  Dot.of_dag ~name:"certificate" ~nodes:(List.rev nodes)
    ~edges:(List.rev edges) ()

(* check, then write the requested artefacts; a rejected certificate is a
   hard failure — the verdict must not ship with an invalid proof *)
let certify proofs certificate =
  if proofs = no_proofs then verdict
  else
    let c = certificate () in
    match Certificate.check c with
    | Error e ->
        Fmt.epr "nocliques: %a@." Certificate.pp_error e;
        failed
    | Ok () ->
        written
          (proof_artefacts proofs
             ~json:(fun () -> Proof_report.of_certificate c)
             ~dot:(fun () -> certificate_dot c))

(* Hand-parsed FACT argument: the parser reserves the [_] prefix for
   generated names, but chase output prints nulls as [_:n<k>], and
   [explain]'s argument is exactly such printed output. Null numbering is
   deterministic per run, so re-running the chase reproduces the names. *)
let parse_fact src =
  let src = String.trim src in
  let term_of s =
    let s = String.trim s in
    if s = "" then Error "empty term"
    else if String.length s > 3 && String.sub s 0 3 = "_:n" then
      match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
      | Some k -> Ok (Term.null k)
      | None -> Error (Fmt.str "malformed null %S" s)
    else Ok (Term.cst s)
  in
  match String.index_opt src '(' with
  | None -> if src = "" then Error "empty fact" else Ok (Atom.app src [])
  | Some i ->
      if String.length src < i + 2 || src.[String.length src - 1] <> ')' then
        Error "expected a fact of the form P(t1,...,tn)"
      else
        let name = String.trim (String.sub src 0 i) in
        let inner = String.sub src (i + 1) (String.length src - i - 2) in
        let parts =
          if String.trim inner = "" then []
          else String.split_on_char ',' inner
        in
        List.fold_left
          (fun acc part ->
            Result.bind acc (fun ts ->
                Result.map (fun t -> t :: ts) (term_of part)))
          (Ok []) parts
        |> Result.map (fun ts -> Atom.app name (List.rev ts))

(* chase *)

let chase ~depth ~max_atoms ~print ~explain ~explain_nulls ~proofs
    (prog : Parser.program) budget =
  let c =
    Chase.run ~max_depth:depth ~max_atoms ~budget prog.facts prog.rules
  in
  Fmt.pr "chase: %a@." Chase.pp_stats c;
  if print then Fmt.pr "%a@." Instance.pp c.instance;
  (* fact-level explain: works on pure-Datalog runs too, where the old
     per-null trace had nothing to say *)
  if explain then begin
    match deepest_fact () with
    | None -> Fmt.pr "no derived facts to explain@."
    | Some (a, _) ->
        Fmt.pr "derivation of the deepest derived fact:@.%a@."
          (Proof.pp ~rules:prog.rules) (Proof.of_fact a)
  end;
  if explain_nulls then begin
    let invented = Term.Set.elements (Chase.invented c) in
    let ts t = Option.value ~default:0 (Chase.timestamp c t) in
    let deepest = List.sort (fun a b -> Int.compare (ts b) (ts a)) invented in
    match deepest with
    | [] -> Fmt.pr "no invented terms to explain@."
    | t :: _ ->
        Fmt.pr "derivation of the deepest invented term:@.%a@."
          (Nca_chase.Derivation.pp ~rules:prog.rules)
          (Nca_chase.Derivation.of_term c t)
  end;
  List.iter
    (fun q -> Fmt.pr "%a  ⊨ %b@." Cq.pp q (Cq.holds c.instance q))
    prog.queries;
  let proof =
    if proofs = no_proofs then verdict
    else
      match deepest_fact () with
      | None ->
          Fmt.epr "nocliques: no derived facts — no proof to export@.";
          failed
      | Some (a, _) -> proof_outcome proofs (Proof.of_fact a)
  in
  with_stop "chase" c.stopped proof

(* explain *)

let explain ~fact ~depth ~max_atoms ~proofs (prog : Parser.program) =
  let fact =
    match parse_fact fact with
    | Ok fact -> fact
    | Error reason ->
        raise (Usage (Fmt.str "cannot parse FACT %S: %s" fact reason))
  in
  (* a FACT whose predicate the program uses at another arity can never
     be in the chase: a usage error, not a failed lookup *)
  let p = Atom.pred fact in
  let signature =
    Symbol.Set.union (Instance.signature prog.facts) (Rule.signature prog.rules)
  in
  let other_arities =
    Symbol.Set.fold
      (fun q acc ->
        if Symbol.name q = Symbol.name p then Symbol.arity q :: acc else acc)
      signature []
  in
  if other_arities <> [] && not (Symbol.Set.mem p signature) then
    raise
      (Usage
         (Fmt.str "FACT %a has arity %d, but %s has arity %a in the program"
            Atom.pp fact (Symbol.arity p) (Symbol.name p)
            Fmt.(list ~sep:(any " and ") int)
            (List.sort compare other_arities)));
  fun budget ->
    let c =
      Chase.run ~max_depth:depth ~max_atoms ~budget prog.facts prog.rules
    in
    if not (Instance.mem fact c.Chase.instance) then begin
      Fmt.epr "fact %a is not in the chase (depth %d%s)@." Atom.pp fact
        c.Chase.depth
        (if c.Chase.saturated then ", saturated" else "");
      failed
    end
    else begin
      let p = Proof.of_fact fact in
      Fmt.pr "%a@." (Proof.pp ~rules:prog.rules) p;
      Fmt.pr "depth=%d facts=%d rules={%s}@." (Proof.depth p) (Proof.size p)
        (String.concat ","
           (List.map (Rule.label prog.rules) (Proof.rules_used p)));
      with_stop "chase" c.Chase.stopped (proof_outcome proofs p)
    end

(* rewrite *)

let rewrite ~file ~rounds ~query (prog : Parser.program) =
  let q =
    match (query, prog.queries) with
    | Some src, _ -> (
        try Parser.query src
        with Parser.Error { position; message } ->
          raise
            (Usage
               (Fmt.str "query %S: %s" src
                  (Parser.error_message position message))))
    | None, q :: _ -> q
    | None, [] ->
        raise
          (Invalid (Fmt.str "no query in %s and none given with --query" file))
  in
  fun budget ->
    let out =
      Nca_rewriting.Rewrite.rewrite ~max_rounds:rounds ~budget prog.rules q
    in
    Fmt.pr "rewriting of %a@." Cq.pp q;
    Fmt.pr "complete=%b rounds=%d disjuncts=%d generated=%d@." out.complete
      out.rounds (Ucq.size out.ucq) out.generated;
    Fmt.pr "%a@." Ucq.pp out.ucq;
    with_stop "rewriting" out.stopped verdict

(* properties *)

let properties ~rounds (prog : Parser.program) budget =
  Fmt.pr "%a@." Properties.pp_report (Properties.describe prog.rules);
  let verdicts =
    Bdd.for_signature ~max_rounds:rounds ~budget prog.rules
      (Rule.signature prog.rules)
  in
  List.iter
    (fun (v : Bdd.verdict) ->
      Fmt.pr "%a: %s (|UCQ|=%d)@." Cq.pp v.query
        (match v.constant with
        | Some k -> Fmt.str "bdd, constant ≤ %d" k
        | None -> "no fixpoint within budget")
        (Ucq.size v.rewriting))
    verdicts;
  Fmt.pr "bdd certified (all atomic queries): %b@." (Bdd.certified verdicts);
  let first_stop =
    List.find_map (fun (v : Bdd.verdict) -> v.stopped) verdicts
  in
  with_stop "bdd certification" first_stop verdict

(* lint *)

let lint ~json ~select ~max_warnings ~list file =
  if list then begin
    List.iter
      (fun (p : Passes.t) -> Fmt.pr "%s  %-20s %s@." p.code p.slug p.doc)
      Passes.registry;
    verdict
  end
  else begin
    let file =
      match file with
      | Some f -> f
      | None ->
          raise (Usage "required argument FILE is missing (or use --list)")
    in
    let select = Option.map (List.map String.uppercase_ascii) select in
    Option.iter
      (List.iter (fun c ->
           if c <> "NCA001" && Passes.find c = None then
             raise
               (Usage (Fmt.str "unknown diagnostic code %s (try --list)" c))))
      select;
    let diagnostics =
      match zoo_program file with
      | Some program -> Lint.run ?select program
      | None -> Lint.lint_source ?select (read_file file)
    in
    if json then Fmt.pr "%a@." Json.pp (Lint.report_to_json diagnostics)
    else Fmt.pr "%a" Lint.pp_report diagnostics;
    { verdict with status = Lint.exit_status ?max_warnings diagnostics }
  end

(* surgery *)

let surgery ~verify ~print ~max_rounds (prog : Parser.program) budget =
  let p = Pipeline.regalize ?max_rounds ~budget prog.facts prog.rules in
  List.iter
    (fun (s : Pipeline.step) ->
      Fmt.pr "step %-12s rules=%-3d %s@." s.label (List.length s.rules) s.note)
    p.steps;
  Fmt.pr "complete=%b final: %a@." p.complete Properties.pp_report
    (Pipeline.final_report p);
  (match Lint.of_pipeline p with
  | [] -> ()
  | ds ->
      Fmt.pr "stage invariants VIOLATED:@.";
      List.iter (fun d -> Fmt.pr "%a@." Nca_analysis.Diagnostic.pp d) ds);
  if print then Fmt.pr "%a@." Rule.pp_set p.final;
  if verify then
    List.iter
      (fun (label, ok) -> Fmt.pr "chase preserved after %-12s %b@." label ok)
      (Pipeline.verify_chase_preservation ~depth:3 prog.facts prog.rules p);
  with_stop "surgery" p.stopped verdict

(* analyze *)

let analyze ~depth ~edge ~proofs (prog : Parser.program) budget =
  let e = Symbol.make edge 2 in
  let p = Pipeline.regalize ~budget prog.facts prog.rules in
  Fmt.pr "regalized: %d rules, complete=%b@." (List.length p.final) p.complete;
  let t = Witness.analyze ~depth ~budget ~e p.final in
  Fmt.pr "Ch(R∃): %a@." Chase.pp_stats t.chase_ex;
  (match t.closure_stopped with
  | None -> ()
  | Some ex ->
      Fmt.pr "Datalog closure PARTIAL (%s) — edge counts are lower bounds@."
        (Exhausted.tag ex));
  Fmt.pr "|Q_⊠| = %d (complete=%b)@." (Ucq.size t.rewriting)
    t.rewriting_complete;
  let edges = Witness.edges t in
  Fmt.pr "E-edges in Ch(Ch(R∃),R_DL): %d@." (List.length edges);
  List.iter
    (fun (s, tt) ->
      match Witness.valley_witness t s tt with
      | Some (q, _) ->
          Fmt.pr "E(%a,%a): valley witness (%a)@." Term.pp s Term.pp tt
            Valley.pp_shape (Valley.shape q)
      | None ->
          Fmt.pr "E(%a,%a): NO valley witness (budget?)@." Term.pp s Term.pp
            tt)
    edges;
  let g = Digraph.of_instance e t.full in
  let tournament = Tournament.max_tournament g in
  Fmt.pr "max tournament=%d loop=%b bound R(4,…,4)=%d@."
    (List.length tournament)
    (Cq.holds t.full (Cq.loop_query e))
    (Theorem1.tournament_size_bound
       ~rewriting_disjuncts:(Ucq.size t.rewriting));
  let first_stop =
    match p.stopped with
    | Some _ as s -> s
    | None -> (
        match t.chase_ex.Chase.stopped with
        | Some _ as s -> s
        | None -> t.closure_stopped)
  in
  with_stop "analysis" first_stop
    (certify proofs (fun () -> Certificate.of_analysis t tournament))

(* tournament *)

let tournament ~depth ~max_atoms ~edge ~proofs (prog : Parser.program) budget =
  let e = Symbol.make edge 2 in
  let v, chase =
    Theorem1.validate_full ~max_depth:depth ~max_atoms ~budget ~e prog.facts
      prog.rules
  in
  Fmt.pr "%a@." Theorem1.pp_verdict v;
  if v.tournament <> [] then
    Fmt.pr "tournament: {%a}@." Fmt.(list ~sep:comma Term.pp) v.tournament;
  Fmt.pr "Theorem 1 shadow (threshold 4): %b@."
    (Theorem1.implication_holds ~threshold:4 v);
  with_stop "tournament analysis" v.stopped
    (certify proofs (fun () ->
         Certificate.of_verdict ~input:prog.facts ~e ~rules:prog.rules v chase))

(* dot *)

let dot ~file ~depth ~edge ~out (prog : Parser.program) =
  let e = Symbol.make edge 2 in
  let c = Chase.run ~max_depth:depth prog.facts prog.rules in
  let g = Digraph.of_instance e c.instance in
  let highlight = Term.Set.of_list (Tournament.max_tournament g) in
  let content = Dot.of_graph ~name:file ~highlight g in
  let note = Fmt.str "wrote %s (max tournament highlighted)" in
  written [ dot_artefact ~note out content ]

(* classes *)

let classes (prog : Parser.program) =
  Fmt.pr "%a@." Nca_surgery.Classes.pp
    (Nca_surgery.Classes.classify prog.rules);
  (match Acyclicity.offending_cycle prog.rules with
  | None -> Fmt.pr "weakly acyclic: chase terminates on every instance@."
  | Some cycle ->
      Fmt.pr "position cycle through a special edge: %a@."
        Fmt.(list ~sep:(any " → ") Acyclicity.pp_position)
        cycle);
  verdict

(* classify *)

let classify ~json ~depth ~max_atoms (prog : Parser.program) budget =
  let budget =
    Budget.intersect (Budget.v ~max_depth:depth ~max_atoms ()) budget
  in
  let t = Termination.classify ~budget prog.rules in
  (* referee discipline: re-verify the certificate or witness
     independently before emitting anything — a rejected certificate is
     an analysis failure, not a verdict *)
  match Termination.check prog.rules t.Termination.verdict with
  | Error reason ->
      Fmt.epr "nocliques: certificate rejected: %s@." reason;
      failed
  | Ok () -> (
      if json then Fmt.pr "%s@." (Json.to_string (Termination.to_json t))
      else Fmt.pr "%a@." Termination.pp t;
      match t.Termination.verdict with
      | Termination.Terminating _ -> verdict
      | Termination.Non_terminating _ -> failed
      | Termination.Unknown e ->
          Fmt.epr "nocliques: classification inconclusive: %a@." Exhausted.pp e;
          no_verdict)

(* finite *)

let witness_doc ~fresh ~forbid m =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "nocliques/fm-witness/v1");
         ("engine", Json.String "sat");
         ("fresh", Json.Int fresh);
         ( "forbid",
           match forbid with
           | None -> Json.Null
           | Some q -> Json.String (Fmt.str "%a" Cq.pp q) );
         ("checked", Json.Bool true);
         ( "domain",
           Json.List
             (List.map
                (fun t -> Json.String (Term.name t))
                (Term.sorted_elements (Instance.adom m))) );
         ( "atoms",
           Json.List
             (List.map
                (fun a -> Json.String (Fmt.str "%a" Atom.pp a))
                (Instance.sorted_atoms m)) );
       ])

let finite ~fresh ~edge ~forbid_loop ~witness (prog : Parser.program) budget =
  let e = Symbol.make edge 2 in
  let forbid = if forbid_loop then Some (Cq.loop_query e) else None in
  match Finite_model.search ~fresh ?forbid ~budget prog.facts prog.rules with
  | Model m -> (
      (* every emitted model goes through the independent checker first:
         a witness the replay rejects is an engine bug, not a result *)
      match
        Nca_chase.Fm_check.check ?forbid ~start:prog.facts ~rules:prog.rules m
      with
      | Error reason ->
          Fmt.epr
            "nocliques: model witness rejected by the independent checker: \
             %s@."
            reason;
          failed
      | Ok () ->
          Fmt.pr "finite model (%d atoms): %a@." (Instance.cardinal m)
            Instance.pp m;
          Fmt.pr "Loop_%s holds in it: %b@." edge
            (Cq.holds m (Cq.loop_query e));
          written
            (Option.to_list
               (artefact witness (fun () ->
                    witness_doc ~fresh ~forbid m ^ "\n"))))
  | No_model ->
      (* a completed search: a definitive negative, not an exhaustion *)
      Fmt.pr
        "no such finite model with %d extra elements — the bounded search \
         space holds none@."
        fresh;
      verdict
  | Exhausted ex ->
      (* no verdict ≠ no model: say so on stderr and in the exit code *)
      Fmt.pr "search budget exhausted — no verdict@.";
      Fmt.epr "nocliques: finite-model search stopped early: %a@." Exhausted.pp
        ex;
      no_verdict

(* zoo *)

let zoo name =
  (match name with
  | None ->
      List.iter
        (fun (e : Rulesets.entry) -> Fmt.pr "%-14s %s@." e.name e.description)
        Rulesets.zoo
  | Some n -> (
      match List.find_opt (fun e -> e.Rulesets.name = n) Rulesets.zoo with
      | Some entry -> Fmt.pr "%a" Rulesets.pp_entry entry
      | None ->
          raise (Usage (Fmt.str "unknown rule set %s (try: nocliques zoo)" n))
      ));
  verdict

(* debug intern-stats *)

let intern_stats ~file (prog : Parser.program) =
  (* bytes the program would carry without interning: one string per
     name occurrence, vs one per distinct name in the table *)
  let seen = Hashtbl.create 64 in
  let name_bytes id =
    Hashtbl.replace seen id ();
    String.length (Names.name id)
  in
  let term_bytes t =
    match t with
    | Term.Var id | Term.Cst id -> name_bytes id
    | Term.Null _ -> 0
  in
  let atom_bytes a =
    name_bytes (Symbol.name_id (Atom.pred a))
    + List.fold_left (fun acc t -> acc + term_bytes t) 0 (Atom.args a)
  in
  let occurrence_bytes =
    Instance.fold (fun a acc -> acc + atom_bytes a) prog.facts 0
    + List.fold_left
        (fun acc r ->
          List.fold_left
            (fun acc a -> acc + atom_bytes a)
            acc
            (Rule.body r @ Rule.head r))
        0 prog.rules
    + List.fold_left
        (fun acc q ->
          List.fold_left
            (fun acc a -> acc + atom_bytes a)
            (List.fold_left (fun acc t -> acc + term_bytes t) acc (Cq.answer q))
            (Cq.body q))
        0 prog.queries
  in
  let names = Names.count () in
  let unique_bytes = Names.live_bytes () in
  Fmt.pr "intern tables after loading %s:@." file;
  Fmt.pr "  names    %6d interned, max id %d, %d bytes@." names (names - 1)
    unique_bytes;
  Fmt.pr "  symbols  %6d interned, max id %d@." (Symbol.count ())
    (Symbol.count () - 1);
  Fmt.pr "  atoms    %6d hash-consed, max id %d@." (Atom.count ())
    (Atom.count () - 1);
  let distinct_bytes =
    Hashtbl.fold (fun id () acc -> acc + String.length (Names.name id)) seen 0
  in
  Fmt.pr
    "  program  %6d name-occurrence bytes over %d distinct names (%d bytes) \
     — %d saved by sharing@."
    occurrence_bytes (Hashtbl.length seen) distinct_bytes
    (occurrence_bytes - distinct_bytes);
  List.iter
    (fun (entries, depth) ->
      Fmt.pr "  atom table %d entries, max collision depth %d@." entries depth)
    (Atom.shard_stats ());
  verdict

(* debug plan *)

let plan ~dot (prog : Parser.program) =
  let stats = prog.facts in
  List.iter
    (fun r ->
      let plan = Plan.compile ~stats (Rule.body r) in
      if dot then Fmt.pr "// rule %s@.%a" (Rule.name r) Plan.pp_dot plan
      else Fmt.pr "rule %s:@.%a@." (Rule.name r) Plan.pp plan)
    prog.rules;
  List.iteri
    (fun i q ->
      let plan = Plan.compile ~stats (Cq.body q) in
      if dot then Fmt.pr "// query %d@.%a" i Plan.pp_dot plan
      else Fmt.pr "query %d:@.%a@." i Plan.pp plan)
    prog.queries;
  verdict

(* debug termination-graph *)

let termination_graph ~graph ~out (prog : Parser.program) =
  let rules = prog.rules in
  let content =
    match graph with
    | `Positions ->
        let dep = Acyclicity.dependency_graph rules in
        let pos_id p = Fmt.str "%a" Acyclicity.pp_position p in
        let nodes =
          List.concat_map
            (fun (e : Acyclicity.edge) -> [ e.source; e.target ])
            dep
          |> List.sort_uniq Acyclicity.compare_positions
          |> List.map (fun p -> (pos_id p, pos_id p, `Derived))
        in
        let edges =
          List.map
            (fun (e : Acyclicity.edge) ->
              ( pos_id e.source,
                pos_id e.target,
                if e.special then Some "special" else None ))
            dep
          |> List.sort_uniq compare
        in
        Dot.of_dag ~name:"positions" ~nodes ~edges ()
    | `Variables ->
        let vid (k, z) = Fmt.str "%d.%a" k Term.pp z in
        let vlabel v = Fmt.str "%a" (Termination.pp_vertex rules) v in
        let nodes =
          List.concat
            (List.mapi
               (fun k r ->
                 List.map
                   (fun z -> ((k, z), ()))
                   (Term.sorted_elements (Rule.exist_vars r)))
               rules)
          |> List.map (fun (v, ()) -> (vid v, vlabel v, `Derived))
        in
        let edges =
          List.map
            (fun (s, t) -> (vid s, vid t, None))
            (Termination.ja_edges rules)
        in
        Dot.of_dag ~name:"existential_variables" ~nodes ~edges ()
    | `Rules ->
        let rid k = string_of_int k in
        let rlabel k = Fmt.str "%s#%d" (Rule.name (List.nth rules k)) k in
        let nodes =
          List.mapi (fun k r -> (k, r)) rules
          |> List.filter (fun (_, r) -> not (Rule.is_datalog r))
          |> List.map (fun (k, _) -> (rid k, rlabel k, `Derived))
        in
        let edges =
          List.map
            (fun (s, t) -> (rid s, rid t, None))
            (Termination.swa_edges rules)
        in
        Dot.of_dag ~name:"trigger_graph" ~nodes ~edges ()
  in
  written [ dot_artefact ~note:(Fmt.str "wrote %s") out content ]
