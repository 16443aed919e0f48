(* MACE-style grounding of a finite-model problem into CNF, over the
   abstract solver seam. See fm_inst.mli for the encoding contract and
   DESIGN.md for the variable layout and caveats. *)

open Nca_logic
module Budget = Nca_obs.Budget
module Telemetry = Nca_obs.Telemetry
module Events = Nca_obs.Events
module Lit = Solver_intf.Lit

let ev_deepen = Events.label "fm.deepen"

type outcome =
  | Model of Instance.t
  | No_model
  | Exhausted of Nca_obs.Exhausted.t

exception Stop of Nca_obs.Exhausted.t

(* All substitutions of [vars] over [domain], lazily, lexicographic in
   [vars] (outermost) and [domain] list order. *)
let assignments vars domain =
  List.fold_left
    (fun partial x ->
      Seq.concat_map
        (fun s -> Seq.map (fun d -> Subst.add x d s) (List.to_seq domain))
        partial)
    (Seq.return Subst.empty) vars

(* All [arity]-tuples over [domain], lazily, lexicographic. *)
let tuples arity domain =
  let rec go k =
    if k = 0 then Seq.return []
    else
      Seq.concat_map
        (fun d -> Seq.map (fun rest -> d :: rest) (go (k - 1)))
        (List.to_seq domain)
  in
  go arity

(* Constants occurring in the rules but not already in [domain]: rule
   heads can introduce them into any model, so the ground universe must
   close over them. *)
let rule_constants ~domain rules =
  let in_domain t = List.exists (Term.equal t) domain in
  let scan acc atoms =
    List.fold_left
      (fun acc a ->
        List.fold_left
          (fun acc t ->
            if Term.is_cst t && not (in_domain t) then Term.Set.add t acc
            else acc)
          acc (Atom.args a))
      acc atoms
  in
  let set =
    List.fold_left
      (fun acc r -> scan (scan acc (Rule.body r)) (Rule.head r))
      Term.Set.empty rules
  in
  Term.sorted_elements set

module Make (S : Solver_intf.S) = struct
  module Atbl = Hashtbl.Make (Atom)

  type inst = {
    solver : S.t;
    universe : Atom.t array;  (** ground atoms, in variable order *)
    var_of : int Atbl.t;
  }

  let instantiate ?forbid ?(budget = Budget.unlimited) ~domain ~sym_break
      start rules =
    let solver = S.create () in
    let var_of = Atbl.create 1024 in
    let rev_universe = ref [] in
    let ticks = ref 0 in
    (* grounding is outside the solver's decision loop; amortized
       deadline/cancellation checkpoints keep it inside the governor *)
    let tick () =
      incr ticks;
      if !ticks land 1023 = 0 then
        match Budget.interrupted budget with
        | Some e -> raise (Stop e)
        | None -> ()
    in
    let sign =
      let s =
        Symbol.Set.union (Rule.signature rules) (Instance.signature start)
      in
      match forbid with
      | None -> s
      | Some q ->
          List.fold_left
            (fun s a -> Symbol.Set.add (Atom.pred a) s)
            s (Cq.body q)
    in
    (* variable layout: one var per ground atom, predicates in name
       order, argument tuples lexicographic in domain order — the
       numbering (hence the model found) is independent of intern ids *)
    List.iter
      (fun p ->
        Seq.iter
          (fun args ->
            tick ();
            let a = Atom.make p args in
            if not (Atbl.mem var_of a) then begin
              let v = S.new_var solver in
              Atbl.add var_of a v;
              rev_universe := a :: !rev_universe
            end)
          (tuples (Symbol.arity p) domain))
      (Symbol.sorted_elements sign);
    let universe = Array.of_list (List.rev !rev_universe) in
    let pos a = Lit.pos (Atbl.find var_of a) in
    let neg a = Lit.neg (Atbl.find var_of a) in
    (* the start instance holds: one unit clause per atom *)
    List.iter
      (fun a ->
        tick ();
        S.add_clause solver [ pos a ])
      (Instance.sorted_atoms start);
    (* rule satisfaction: for every ground body, some head instantiation.
       Datalog rules ground to one clause per head atom; existential
       rules to an at-least-one disjunction whose disjuncts are head
       atoms (single-atom heads) or auxiliary selector variables
       implying every head atom of that instantiation. *)
    List.iter
      (fun rule ->
        let bvars = Term.sorted_elements (Rule.body_vars rule) in
        let evars = Term.sorted_elements (Rule.exist_vars rule) in
        let body = Rule.body rule and head = Rule.head rule in
        Seq.iter
          (fun sigma ->
            tick ();
            let body_lits =
              List.sort_uniq Int.compare
                (List.map (fun a -> neg (Subst.apply_atom sigma a)) body)
            in
            match evars with
            | [] ->
                List.iter
                  (fun h ->
                    S.add_clause solver
                      (body_lits @ [ pos (Subst.apply_atom sigma h) ]))
                  head
            | _ ->
                let disjuncts =
                  assignments evars domain
                  |> Seq.map (fun tau ->
                         tick ();
                         let ground =
                           List.map
                             (fun h ->
                               Subst.apply_atom tau (Subst.apply_atom sigma h))
                             head
                         in
                         match ground with
                         | [ h ] -> pos h
                         | hs ->
                             let y = S.new_var solver in
                             List.iter
                               (fun h ->
                                 S.add_clause solver [ Lit.neg y; pos h ])
                               hs;
                             Lit.pos y)
                  |> List.of_seq
                in
                S.add_at_least_one_clause solver (body_lits @ disjuncts))
          (assignments bvars domain))
      rules;
    (* forbid: no instantiation of the (monotone Boolean) query may be
       wholly true. Instantiations touching atoms outside the universe
       (constants beyond the domain) are unsatisfiable already. *)
    (match forbid with
    | None -> ()
    | Some q ->
        let qvars = Term.sorted_elements (Cq.vars q) in
        Seq.iter
          (fun sigma ->
            tick ();
            let ground = List.map (Subst.apply_atom sigma) (Cq.body q) in
            if List.for_all (fun a -> Atbl.mem var_of a) ground then
              S.add_at_most_one_clause solver
                (List.sort_uniq Int.compare (List.map neg ground)))
          (assignments qvars domain));
    (* symmetry breaking: fresh elements are interchangeable (they occur
       in no rule, start atom or forbid instantiation), so force the
       used ones to form a prefix — u_i ("element i is mentioned by some
       true atom") may only hold when u_{i-1} does. *)
    let prev = ref None in
    List.iter
      (fun d ->
        let u = S.new_var solver in
        Array.iter
          (fun a ->
            if List.exists (Term.equal d) (Atom.args a) then
              S.add_clause solver [ neg a; Lit.pos u ])
          universe;
        (match !prev with
        | Some u' -> S.add_symmetry_clause solver [ Lit.neg u; Lit.pos u' ]
        | None -> ());
        prev := Some u)
      sym_break;
    { solver; universe; var_of }

  let decode inst =
    Array.fold_left
      (fun m a ->
        if S.model_value inst.solver (Atbl.find inst.var_of a) then
          Instance.add a m
        else m)
      Instance.empty inst.universe

  let counts inst =
    let st = S.stats inst.solver in
    (st.Solver_intf.vars, st.Solver_intf.clauses)

  let solve_inst ?budget inst =
    Telemetry.timed "sat.solve_us" @@ fun () ->
    match S.solve ?budget inst.solver with
    | Solver_intf.Sat -> `Sat (decode inst)
    | Solver_intf.Unsat -> `Unsat
    | Solver_intf.Unknown e -> `Unknown e

  let take k l = List.filteri (fun i _ -> i < k) l

  let record_round st =
    Telemetry.incr "sat.rounds";
    Telemetry.count "sat.vars" st.Solver_intf.vars;
    Telemetry.count "sat.clauses" st.Solver_intf.clauses;
    Telemetry.count "sat.decisions" st.Solver_intf.decisions;
    Telemetry.count "sat.conflicts" st.Solver_intf.conflicts;
    Telemetry.count "sat.propagations" st.Solver_intf.propagations;
    Stats.record st

  let search ?forbid ?(budget = Budget.unlimited) ~base ~fresh start rules =
    Telemetry.span "finite_model.sat" @@ fun () ->
    let consts = rule_constants ~domain:(base @ fresh) rules in
    (* the step budget is shared across deepening rounds: each round
       gets what the previous rounds left *)
    let steps_left = ref budget.Budget.max_steps in
    let rec deepen k =
      if k > List.length fresh then No_model
      else
        let () = Telemetry.instant ev_deepen ~arg:k in
        let sym_break = take k fresh in
        let domain = base @ sym_break @ consts in
        let round_budget = { budget with Budget.max_steps = !steps_left } in
        match
          instantiate ?forbid ~budget:round_budget ~domain ~sym_break start
            rules
        with
        | exception Stop e -> Exhausted e
        | inst -> (
            let outcome = solve_inst ~budget:round_budget inst in
            let st = S.stats inst.solver in
            record_round st;
            (match !steps_left with
            | Some n ->
                steps_left := Some (max 0 (n - st.Solver_intf.decisions))
            | None -> ());
            match outcome with
            | `Sat m -> Model m
            | `Unsat -> deepen (k + 1)
            | `Unknown e -> Exhausted e)
    in
    deepen 0
end
