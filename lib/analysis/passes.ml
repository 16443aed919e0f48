open Nca_logic
module D = Diagnostic

type t = {
  code : string;
  slug : string;
  doc : string;
  run : Parser.program -> D.t list;
}

(* ------------------------------------------------------------------ *)
(* shared helpers *)

let indexed_rules (p : Parser.program) =
  List.mapi (fun i r -> (i, r)) p.rules

let rule_site i r = D.Rule_site { name = Rule.name r; index = i }

let program_signature (p : Parser.program) =
  let s = Symbol.Set.union (Rule.signature p.rules) (Instance.signature p.facts) in
  List.fold_left
    (fun acc q ->
      List.fold_left
        (fun acc a -> Symbol.Set.add (Atom.pred a) acc)
        acc (Cq.body q))
    s p.queries

let preds_of_atoms atoms =
  List.fold_left
    (fun acc a -> Symbol.Set.add (Atom.pred a) acc)
    Symbol.Set.empty atoms

let pp_vars = Fmt.(list ~sep:(any ", ") Term.pp)

(* ------------------------------------------------------------------ *)
(* NCA002 — arity drift *)

module SMap = Map.Make (String)

let arity_drift p =
  let by_name =
    Symbol.Set.fold
      (fun s acc ->
        SMap.update (Symbol.name s)
          (fun prev -> Some (Symbol.arity s :: Option.value prev ~default:[]))
          acc)
      (program_signature p) SMap.empty
  in
  SMap.fold
    (fun name arities acc ->
      match List.sort_uniq Int.compare arities with
      | [] | [ _ ] -> acc
      | first :: _ as many ->
          D.make ~code:"NCA002" ~severity:D.Error
            ~location:(D.Predicate { name; arity = first })
            ~certificate:
              (Fmt.str "arities: %a" Fmt.(list ~sep:(any ", ") int) many)
            ~hint:"rename one of the predicates — same-name symbols with \
                   different arities never unify"
            (Fmt.str
               "predicate %s is used with %d different arities — these are \
                distinct symbols that will never match each other"
               name (List.length many))
          :: acc)
    by_name []

(* ------------------------------------------------------------------ *)
(* NCA003 — unsafe (existential) head variables *)

let unsafe_head_vars p =
  List.filter_map
    (fun (i, r) ->
      let ev = Rule.exist_vars r in
      if Term.Set.is_empty ev then None
      else
        Some
          (D.make ~code:"NCA003" ~severity:D.Info ~location:(rule_site i r)
             ~certificate:
               (Fmt.str "existential variables: %a" pp_vars
                  (Term.sorted_elements ev))
             ~hint:
               "intended? every firing invents fresh nulls; a Datalog rule \
                must use only body variables in its head"
             (Fmt.str
                "head variable%s %a %s not occur in the body — existentially \
                 quantified (§2.1)"
                (if Term.Set.cardinal ev > 1 then "s" else "")
                pp_vars (Term.sorted_elements ev)
                (if Term.Set.cardinal ev > 1 then "do" else "does"))))
    (indexed_rules p)

(* ------------------------------------------------------------------ *)
(* NCA004 — underivable predicates / dead rules *)

(* Predicate-level reachability: facts and EDB predicates (occurring in no
   head) are given; a rule fires once all its body predicates are
   derivable, making its head predicates derivable. Rules outside the
   fixpoint can never fire on any database. *)
let derivable_predicates (p : Parser.program) =
  let head_preds =
    preds_of_atoms (List.concat_map Rule.head p.rules)
  in
  let base =
    Symbol.Set.union
      (Symbol.Set.add Symbol.top (Instance.signature p.facts))
      (Symbol.Set.diff (program_signature p) head_preds)
  in
  let fires derivable r =
    Symbol.Set.subset (preds_of_atoms (Rule.body r)) derivable
  in
  let step derivable =
    List.fold_left
      (fun acc r ->
        if fires acc r then
          Symbol.Set.union acc (preds_of_atoms (Rule.head r))
        else acc)
      derivable p.rules
  in
  let rec fix derivable =
    let next = step derivable in
    if Symbol.Set.equal next derivable then derivable else fix next
  in
  fix base

let dead_rules p =
  let derivable = derivable_predicates p in
  List.filter_map
    (fun (i, r) ->
      let missing =
        Symbol.Set.diff (preds_of_atoms (Rule.body r)) derivable
      in
      if Symbol.Set.is_empty missing then None
      else
        Some
          (D.make ~code:"NCA004" ~severity:D.Warning
             ~location:(rule_site i r)
             ~certificate:
               (Fmt.str "underivable body predicates: %a"
                  Fmt.(list ~sep:(any ", ") Symbol.pp)
                  (Symbol.sorted_elements missing))
             ~hint:
               "add a fact or rule deriving the predicate, or delete the \
                dead rule"
             (Fmt.str
                "rule can never fire: %a is derived by no rule and provided \
                 by no fact or input predicate"
                Fmt.(list ~sep:(any ", ") Symbol.pp)
                (Symbol.sorted_elements missing))))
    (indexed_rules p)

(* ------------------------------------------------------------------ *)
(* NCA005 — derived but never consumed *)

let unused_predicates (p : Parser.program) =
  if p.queries = [] then []
    (* without queries the consumer set is unknown — stay silent *)
  else
    let derived = preds_of_atoms (List.concat_map Rule.head p.rules) in
    let consumed =
      Symbol.Set.union
        (preds_of_atoms (List.concat_map Rule.body p.rules))
        (preds_of_atoms (List.concat_map Cq.body p.queries))
    in
    Symbol.Set.fold
      (fun s acc ->
        D.make ~code:"NCA005" ~severity:D.Info
          ~location:
            (D.Predicate { name = Symbol.name s; arity = Symbol.arity s })
          ~hint:"drop the deriving rules, or query the predicate"
          (Fmt.str
             "predicate %a is derived but consumed by no rule body and no \
              query"
             Symbol.pp s)
        :: acc)
      (Symbol.Set.diff derived consumed)
      []

(* ------------------------------------------------------------------ *)
(* NCA006 — rule subsumption / shadowing *)

(* A Datalog rule corresponds to the CQ whose answer tuple lists its head
   arguments (heads sorted to fix the order). [r'] shadows [r] when both
   derive over the same head-predicate multiset and q_r ⊑ q_r'
   (Chandra–Merlin: [Cq.subsumes q_r' q_r]): every trigger of [r]
   is then a trigger of [r'] producing the same head atoms. *)
let rule_as_cq r =
  if not (Rule.is_datalog r) then None
  else
    (* structural order: the comparison key (head predicate names) must
       canonicalize identically for rules built at different times *)
    let heads = List.sort Atom.compare_structural (Rule.head r) in
    let preds = List.map Atom.pred heads in
    let rec has_dup = function
      | [] -> false
      | p :: rest -> List.exists (Symbol.equal p) rest || has_dup rest
    in
    if has_dup preds then None
    else
      match Cq.make ~answer:(List.concat_map Atom.args heads) (Rule.body r) with
      | q -> Some (List.map Symbol.name preds, q)
      | exception Invalid_argument _ -> None

let shadowed_rules p =
  let cqs = List.map (fun (i, r) -> (i, r, rule_as_cq r)) (indexed_rules p) in
  List.filter_map
    (fun (j, rj, cqj) ->
      match cqj with
      | None -> None
      | Some (key_j, qj) ->
          let shadowing =
            List.find_opt
              (fun (i, _, cqi) ->
                i <> j
                &&
                match cqi with
                | Some (key_i, qi) when key_i = key_j ->
                    Cq.subsumes qi qj
                    && (i < j || not (Cq.subsumes qj qi))
                | _ -> false)
              cqs
          in
          Option.map
            (fun (i, ri, _) ->
              D.make ~code:"NCA006" ~severity:D.Warning
                ~location:(rule_site j rj)
                ~certificate:
                  (Fmt.str "q(%s) ⊑ q(%s) (Chandra–Merlin)" (Rule.name rj)
                     (Rule.name ri))
                ~hint:"delete the shadowed rule — it derives nothing new"
                (Fmt.str
                   "rule is subsumed by rule %s (#%d): whenever it fires, %s \
                    already derives the same head atoms"
                   (Rule.name ri) i (Rule.name ri)))
            shadowing)
    cqs

(* ------------------------------------------------------------------ *)
(* NCA007 — weak acyclicity *)

let weak_acyclicity (p : Parser.program) =
  match Nca_chase.Acyclicity.offending_cycle p.rules with
  | None -> []
  | Some cycle ->
      (* a stronger criterion of the hierarchy may still certify
         termination — then the cycle is information, not a warning *)
      let severity =
        match (Termination.classify_cached p.rules).verdict with
        | Termination.Terminating _ -> D.Info
        | _ -> D.Warning
      in
      [
        D.make ~code:"NCA007" ~severity ~location:D.Program
          ~certificate:
            (Fmt.str "%a"
               Fmt.(list ~sep:(any " → ") Nca_chase.Acyclicity.pp_position)
               cycle)
          ~hint:
            "not fatal — bdd rule sets need not be weakly acyclic (the \
             paper's Example 1 is not) — but termination then needs \
             another argument"
          "not weakly acyclic: the position dependency graph has a cycle \
           through a special edge, so the oblivious chase may not terminate \
           [Fagin et al.]";
      ]

(* ------------------------------------------------------------------ *)
(* NCA008 — forward-existentiality violations (Def. 21) *)

let forward_existential p =
  List.filter_map
    (fun (i, r) ->
      if Rule.is_datalog r then None
      else
        let frontier = Rule.frontier r and exist = Rule.exist_vars r in
        let offending =
          List.concat
            (List.mapi
               (fun k a ->
                 match Atom.args a with
                 | [ x; y ] ->
                     (if Term.Set.mem x frontier then []
                      else
                        [
                          Fmt.str "head atom #%d %a: position 0 holds %a, \
                                   not a frontier variable" k Atom.pp a
                            Term.pp x;
                        ])
                     @
                     if Term.Set.mem y exist then []
                     else
                       [
                         Fmt.str "head atom #%d %a: position 1 holds %a, \
                                  not an existential variable" k Atom.pp a
                           Term.pp y;
                       ]
                 | _ -> [])
               (Rule.head r))
        in
        if offending = [] then None
        else
          Some
            (D.make ~code:"NCA008" ~severity:D.Warning
               ~location:(rule_site i r)
               ~certificate:(String.concat "; " offending)
               ~hint:"streamlining (§4.3) rewrites heads into ρ_init/ρ_∃/ρ_DL \
                      form, restoring the property"
               "existential rule is not forward-existential (Def. 21): some \
                binary head atom is not frontier-to-existential"))
    (indexed_rules p)

(* ------------------------------------------------------------------ *)
(* NCA009 — predicate-uniqueness violations (Def. 22) *)

let predicate_unique p =
  List.filter_map
    (fun (i, r) ->
      if Rule.is_datalog r then None
      else
        let dups =
          List.filteri
            (fun k a ->
              List.exists
                (fun b -> Symbol.equal (Atom.pred a) (Atom.pred b))
                (List.filteri (fun k' _ -> k' < k) (Rule.head r)))
            (Rule.head r)
        in
        if dups = [] then None
        else
          Some
            (D.make ~code:"NCA009" ~severity:D.Warning
               ~location:(rule_site i r)
               ~certificate:
                 (Fmt.str "repeated head atoms: %a" Atom.pp_list dups)
               ~hint:"streamlining (§4.3) gives each head atom a private \
                      predicate"
               "existential rule is not predicate-unique (Def. 22): a head \
                predicate occurs more than once"))
    (indexed_rules p)

(* ------------------------------------------------------------------ *)
(* NCA010 — existential cascade risk *)

module SG = Nca_graph.Digraph.Make (struct
  type t = Symbol.t

  let compare = Symbol.compare
  let pp = Symbol.pp
end)

let existential_cascade (p : Parser.program) =
  let certified_terminating () =
    match (Termination.classify_cached p.rules).verdict with
    | Termination.Terminating _ -> true
    | _ -> false
  in
  let g =
    List.fold_left
      (fun g r ->
        List.fold_left
          (fun g bp ->
            List.fold_left
              (fun g hp -> SG.add_edge bp hp g)
              g
              (Symbol.Set.elements (preds_of_atoms (Rule.head r))))
          g
          (Symbol.Set.elements (preds_of_atoms (Rule.body r))))
      SG.empty p.rules
  in
  let diags =
    List.filter_map
      (fun (i, r) ->
        if Rule.is_datalog r then None
        else
          (* name order: the first feedback pair found is printed in the
             certificate, so the scan order must be byte-stable *)
          let body = Symbol.sorted_elements (preds_of_atoms (Rule.body r)) in
          let head = Symbol.sorted_elements (preds_of_atoms (Rule.head r)) in
          let feedback =
            List.concat_map
              (fun hp ->
                List.filter_map
                  (fun bp ->
                    if Symbol.equal hp bp || SG.reaches hp bp g then
                      Some (hp, bp)
                    else None)
                  body)
              head
          in
          match feedback with
          | [] -> None
          | (hp, bp) :: _ ->
              Some
                (D.make ~code:"NCA010" ~severity:D.Warning
                   ~location:(rule_site i r)
                   ~certificate:
                     (Fmt.str "%a →* %a feeds the rule's own body" Symbol.pp
                        hp Symbol.pp bp)
                   ~hint:"each firing can enable another — see NCA007 for \
                          the position-level (finer) criterion"
                   "existential rule feeds its own body through the \
                    predicate dependency graph — unbounded null cascade \
                    risk"))
      (indexed_rules p)
  in
  (* predicate-level feedback is the coarsest signal in the hierarchy:
     when the classifier certifies termination outright, the cascade
     cannot be unbounded and the warning would be noise *)
  if diags <> [] && certified_terminating () then [] else diags

(* ------------------------------------------------------------------ *)
(* NCA011 — trivial loop *)

let is_loop_atom a =
  match Atom.args a with
  | [ s; t ] -> Term.equal s t
  | _ -> false

let trivial_loop (p : Parser.program) =
  let from_rules =
    List.filter_map
      (fun (i, r) ->
        match List.filter is_loop_atom (Rule.head r) with
        | [] -> None
        | loops ->
            Some
              (D.make ~code:"NCA011" ~severity:D.Warning
                 ~location:(rule_site i r)
                 ~certificate:(Fmt.str "head atoms: %a" Atom.pp_list loops)
                 ~hint:
                   "once a loop is derivable, Loop_E is entailed and the \
                    tournament question (Thm. 1) trivializes"
                 "rule head derives a loop P(x,x) syntactically (Def. 10)"))
      (indexed_rules p)
  in
  let from_facts =
    Instance.fold
      (fun a acc ->
        if is_loop_atom a then
          D.make ~code:"NCA011" ~severity:D.Warning ~location:D.Program
            ~certificate:(Fmt.str "fact: %a" Atom.pp a)
            ~hint:
              "once a loop is present, Loop_E holds and the tournament \
               question (Thm. 1) trivializes"
            (Fmt.str "the instance contains the loop fact %a (Def. 10)"
               Atom.pp a)
          :: acc
        else acc)
      p.facts []
  in
  from_rules @ from_facts

(* ------------------------------------------------------------------ *)
(* NCA012 — non-binary signature *)

let non_binary p =
  Symbol.Set.fold
    (fun s acc ->
      if Symbol.arity s <= 2 then acc
      else
        D.make ~code:"NCA012" ~severity:D.Info
          ~location:
            (D.Predicate { name = Symbol.name s; arity = Symbol.arity s })
          ~hint:"reification (§4.2) encodes it into binary position \
                 predicates; `nocliques surgery` does this automatically"
          (Fmt.str
             "predicate %a has arity %d > 2 — outside the paper's binary \
              signatures (§2.1)"
             Symbol.pp s (Symbol.arity s))
        :: acc)
    (program_signature p) []

(* ------------------------------------------------------------------ *)
(* NCA014–NCA018 — the acyclicity hierarchy (Termination classifier) *)

module T = Termination

(* The passes below all consult {!Termination.classify_cached}, which
   memoizes the classification (including the budgeted critical-instance
   chase) so the hierarchy runs once per lint invocation, not once per
   pass. Diagnostics print rule and variable names only — never null
   ids, which are not stable across in-process runs. *)

let hierarchy_severity (t : T.t) =
  (* a cycle in a weaker criterion's graph is only informational when a
     stronger criterion already certifies termination *)
  match t.T.verdict with T.Terminating _ -> D.Info | _ -> D.Warning

(* render [v0 … vk] (closing edge vk → v0) as v0 → … → vk → v0 *)
let pp_cycle pp_v ppf = function
  | [] -> ()
  | v0 :: _ as cycle ->
      Fmt.(list ~sep:(any " → ") pp_v) ppf (cycle @ [ v0 ])

let joint_acyclicity (p : Parser.program) =
  let t = T.classify_cached p.rules in
  match t.T.ja_cycle with
  | None -> []
  | Some cycle ->
      [
        D.make ~code:"NCA014" ~severity:(hierarchy_severity t)
          ~location:D.Program
          ~certificate:
            (Fmt.str "%a" (pp_cycle (T.pp_vertex p.rules)) cycle)
          ~hint:
            "not fatal — joint acyclicity is only sufficient; the \
             classifier falls through to super-weak acyclicity (NCA015) \
             and the critical-instance test (NCA016)"
          "not jointly acyclic: the existential-variable dependency graph \
           has a cycle, so a null invented for each variable on it can \
           trigger the next [Krötzsch & Rudolph]";
      ]

(* The classifier's rule indices index the very [p.rules] it classified. *)
let rule_at (p : Parser.program) k = List.nth p.rules k

let super_weak_acyclicity (p : Parser.program) =
  let t = T.classify_cached p.rules in
  match t.T.swa_cycle with
  | None -> []
  | Some cycle ->
      let pp_rule ppf k = Fmt.pf ppf "%s#%d" (Rule.name (rule_at p k)) k in
      [
        D.make ~code:"NCA015" ~severity:(hierarchy_severity t)
          ~location:D.Program
          ~certificate:(Fmt.str "%a" (pp_cycle pp_rule) cycle)
          ~hint:
            "place unification is approximated by predicate positions — \
             a cycle here still leaves the critical-instance test \
             (NCA016) to certify termination"
          "not super-weakly acyclic: the trigger graph over existential \
           rules has a cycle [Marnette]";
      ]

let mfa (p : Parser.program) =
  let t = T.classify_cached p.rules in
  match (t.T.cyclic_term, t.T.verdict) with
  | Some (k, z), _ ->
      let r = rule_at p k in
      [
        D.make ~code:"NCA016" ~severity:D.Warning ~location:(rule_site k r)
          ~certificate:
            (Fmt.str "the nulls invented for %a of rule %s#%d nest"
               Term.pp z (Rule.name r) k)
          ~hint:
            "the classical MFA test fails exactly on cyclic terms — \
             NCA017 reports a divergence proof when one is found"
          "MFA fails: the critical-instance chase nests a null inside an \
           ancestor null invented by the same rule and variable \
           [Cuenca Grau et al.]";
      ]
  | None, T.Unknown e ->
      [
        D.make ~code:"NCA016" ~severity:D.Info ~location:D.Program
          ~certificate:(Fmt.str "%a" Nca_obs.Exhausted.pp e)
          ~hint:
            "raise the budget (nocliques classify --depth/--max-atoms) \
             or supply a manual termination argument"
          "MFA inconclusive: the critical-instance chase exhausted its \
           budget before saturating or finding a cyclic term";
      ]
  | None, _ -> []

let non_termination (p : Parser.program) =
  let t = T.classify_cached p.rules in
  match t.T.verdict with
  | T.Non_terminating w ->
      let r = rule_at p w.T.w_rule in
      [
        D.make ~code:"NCA017" ~severity:D.Warning
          ~location:(rule_site w.T.w_rule r)
          ~certificate:(Fmt.str "%a" (T.pp_witness p.rules) w)
          ~hint:
            "every firing yields a new trigger whose frontier image holds \
             the null just invented — break the feedback, or chase only \
             under budgets"
          "the semi-oblivious chase provably diverges on the critical \
           instance: the rule pumps a frontier variable into its own \
           existential output";
      ]
  | _ -> []

let termination_certified (p : Parser.program) =
  (* Datalog-only programs terminate trivially — reporting that would be
     noise on every clean program, so the pass speaks only when an
     existential rule is present *)
  if List.for_all Rule.is_datalog p.rules then []
  else
    let t = T.classify_cached p.rules in
    match t.T.verdict with
    | T.Terminating (c, cert) ->
        [
          D.make ~code:"NCA018" ~severity:D.Info ~location:D.Program
            ~certificate:(Fmt.str "%a" (T.pp_certificate p.rules) cert)
            ~hint:
              "budgets can be relaxed — the semi-oblivious chase \
               saturates on every instance"
            (Fmt.str
               "chase termination statically certified (criterion: %a)"
               T.pp_criterion c);
        ]
    | _ -> []

(* ------------------------------------------------------------------ *)
(* NCA019 — duplicate rule labels *)

(* Two rules sharing a label are still two rules — both fire — but every
   report that names rules by label (explain's "by r", plans, the other
   passes) can no longer tell them apart. One warning per later use. *)
let duplicate_labels p =
  let rules = indexed_rules p in
  List.filter_map
    (fun (i, r) ->
      let name = Rule.name r in
      List.find_opt
        (fun (j, r') -> j < i && String.equal (Rule.name r') name)
        rules
      |> Option.map (fun (i0, _) ->
             D.make ~code:"NCA019" ~severity:D.Warning ~location:(rule_site i r)
               ~certificate:(Fmt.str "first labelled %s: rule #%d" name i0)
               ~hint:"rename one of the rules"
               (Fmt.str
                  "label %s is already used by rule #%d — derivations and \
                   diagnostics naming %s are ambiguous"
                  name i0 name)))
    rules

(* ------------------------------------------------------------------ *)
(* registry *)

let registry =
  [
    {
      code = "NCA002";
      slug = "arity-drift";
      doc = "same predicate name used with different arities";
      run = arity_drift;
    };
    {
      code = "NCA003";
      slug = "unsafe-head-var";
      doc = "head variable missing from the body (existential, invents nulls)";
      run = unsafe_head_vars;
    };
    {
      code = "NCA004";
      slug = "dead-rule";
      doc = "rule whose body predicates can never all be derived";
      run = dead_rules;
    };
    {
      code = "NCA005";
      slug = "unused-predicate";
      doc = "predicate derived but consumed by no body and no query";
      run = unused_predicates;
    };
    {
      code = "NCA006";
      slug = "shadowed-rule";
      doc = "rule subsumed by a more general rule (CQ containment)";
      run = shadowed_rules;
    };
    {
      code = "NCA007";
      slug = "weak-acyclicity";
      doc = "position dependency cycle through a special edge";
      run = weak_acyclicity;
    };
    {
      code = "NCA008";
      slug = "forward-existential";
      doc = "existential rule violating Def. 21 (with offending positions)";
      run = forward_existential;
    };
    {
      code = "NCA009";
      slug = "predicate-unique";
      doc = "existential rule repeating a head predicate (Def. 22)";
      run = predicate_unique;
    };
    {
      code = "NCA010";
      slug = "existential-cascade";
      doc = "existential rule feeding its own body (predicate-level)";
      run = existential_cascade;
    };
    {
      code = "NCA011";
      slug = "trivial-loop";
      doc = "loop atom P(x,x) in a head or a fact (Def. 10)";
      run = trivial_loop;
    };
    {
      code = "NCA012";
      slug = "non-binary";
      doc = "predicate of arity > 2 (needs reification, §4.2)";
      run = non_binary;
    };
    {
      code = "NCA014";
      slug = "joint-acyclicity";
      doc = "existential-variable dependency cycle (joint acyclicity fails)";
      run = joint_acyclicity;
    };
    {
      code = "NCA015";
      slug = "super-weak-acyclicity";
      doc = "trigger-graph cycle over existential rules (SWA fails)";
      run = super_weak_acyclicity;
    };
    {
      code = "NCA016";
      slug = "mfa";
      doc = "critical-instance chase found a cyclic term or ran out of budget";
      run = mfa;
    };
    {
      code = "NCA017";
      slug = "nonterminating";
      doc = "pumping witness: the critical-instance chase provably diverges";
      run = non_termination;
    };
    {
      code = "NCA018";
      slug = "termination";
      doc = "strongest termination criterion certified, with certificate";
      run = termination_certified;
    };
    {
      code = "NCA019";
      slug = "duplicate-label";
      doc = "rule label already used by an earlier rule";
      run = duplicate_labels;
    };
  ]

let find code =
  List.find_opt (fun p -> String.equal p.code code) registry
