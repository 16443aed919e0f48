(* Tests for the SAT-backed finite-model engine: the pure-OCaml DPLL
   backend, the MACE-style grounding functor, the independent witness
   checker, and the SAT ≡ DFS differential properties against the
   oracle's depth-first completion. *)

open Nca_logic
module Lit = Nca_sat.Solver_intf.Lit
module Dpll = Nca_sat.Dpll
module Fm_inst = Nca_sat.Fm_inst
module Fm = Nca_sat.Fm_inst.Make (Nca_sat.Dpll)
module Finite_model = Nca_chase.Finite_model
module Fm_check = Nca_chase.Fm_check
module Fm_dfs = Nca_oracle.Fm_dfs
module Rulesets = Nca_core.Rulesets
module Budget = Nca_obs.Budget

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let e2 = Symbol.make "E" 2

(* ------------------------------------------------------------------ *)
(* DPLL backend *)

let outcome_is_sat = function Nca_sat.Solver_intf.Sat -> true | _ -> false

let outcome_is_unsat = function
  | Nca_sat.Solver_intf.Unsat -> true
  | _ -> false

let test_unit_propagation () =
  (* a ∧ (¬a ∨ b) ∧ (¬b ∨ c): pure propagation, no decisions *)
  let s = Dpll.create () in
  let a = Dpll.new_var s
  and b = Dpll.new_var s
  and c = Dpll.new_var s in
  Dpll.add_clause s [ Lit.pos a ];
  Dpll.add_clause s [ Lit.neg a; Lit.pos b ];
  Dpll.add_clause s [ Lit.neg b; Lit.pos c ];
  check "sat" true (outcome_is_sat (Dpll.solve s));
  check "a" true (Dpll.model_value s a);
  check "b" true (Dpll.model_value s b);
  check "c" true (Dpll.model_value s c);
  check_int "no decisions needed" 0 (Dpll.stats s).Nca_sat.Solver_intf.decisions

let test_conflict_and_backtrack () =
  (* (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b): forces a = b = true through at
     least one conflict under the false-first phase *)
  let s = Dpll.create () in
  let a = Dpll.new_var s
  and b = Dpll.new_var s in
  Dpll.add_clause s [ Lit.pos a; Lit.pos b ];
  Dpll.add_clause s [ Lit.neg a; Lit.pos b ];
  Dpll.add_clause s [ Lit.pos a; Lit.neg b ];
  check "sat" true (outcome_is_sat (Dpll.solve s));
  check "a" true (Dpll.model_value s a);
  check "b" true (Dpll.model_value s b);
  check "conflicts recorded" true
    ((Dpll.stats s).Nca_sat.Solver_intf.conflicts >= 1)

let test_unsat_sanity () =
  (* all four sign combinations over {a, b}: UNSAT; dropping any one
     clause restores satisfiability (a minimal-core sanity check) *)
  let clauses =
    [
      (fun a b -> [ Lit.pos a; Lit.pos b ]);
      (fun a b -> [ Lit.pos a; Lit.neg b ]);
      (fun a b -> [ Lit.neg a; Lit.pos b ]);
      (fun a b -> [ Lit.neg a; Lit.neg b ]);
    ]
  in
  let solve_without skip =
    let s = Dpll.create () in
    let a = Dpll.new_var s
    and b = Dpll.new_var s in
    List.iteri (fun i c -> if i <> skip then Dpll.add_clause s (c a b)) clauses;
    Dpll.solve s
  in
  check "full set unsat" true (outcome_is_unsat (solve_without (-1)));
  List.iteri
    (fun i _ ->
      check (Fmt.str "dropping clause %d restores sat" i) true
        (outcome_is_sat (solve_without i)))
    clauses

let test_pigeonhole_unsat () =
  (* PHP(3,2): 3 pigeons in 2 holes, no hole shared — needs real search,
     not just root propagation *)
  let s = Dpll.create () in
  let x = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Dpll.new_var s)) in
  for p = 0 to 2 do
    Dpll.add_clause s [ Lit.pos x.(p).(0); Lit.pos x.(p).(1) ]
  done;
  for h = 0 to 1 do
    for p = 0 to 2 do
      for q = p + 1 to 2 do
        Dpll.add_clause s [ Lit.neg x.(p).(h); Lit.neg x.(q).(h) ]
      done
    done
  done;
  check "php(3,2) unsat" true (outcome_is_unsat (Dpll.solve s))

let test_empty_and_tautology () =
  let s = Dpll.create () in
  let a = Dpll.new_var s in
  Dpll.add_clause s [ Lit.pos a; Lit.neg a ];
  (* tautologies are dropped entirely *)
  check_int "tautology not counted" 0 (Dpll.stats s).Nca_sat.Solver_intf.clauses;
  check "sat without constraints" true (outcome_is_sat (Dpll.solve s));
  Dpll.add_clause s [];
  check "empty clause" true (outcome_is_unsat (Dpll.solve s))

let test_incremental_blocking () =
  (* model enumeration by blocking clauses, across solve calls *)
  let s = Dpll.create () in
  let a = Dpll.new_var s
  and b = Dpll.new_var s in
  Dpll.add_clause s [ Lit.pos a; Lit.pos b ];
  let rec count n =
    if outcome_is_sat (Dpll.solve s) then begin
      let block =
        List.map
          (fun v -> if Dpll.model_value s v then Lit.neg v else Lit.pos v)
          [ a; b ]
      in
      Dpll.add_clause s block;
      count (n + 1)
    end
    else n
  in
  check_int "three models of a ∨ b" 3 (count 0)

let test_budget_unknown () =
  (* a step budget of 0 stops the solver at its first decision *)
  let s = Dpll.create () in
  let a = Dpll.new_var s
  and b = Dpll.new_var s in
  Dpll.add_clause s [ Lit.pos a; Lit.pos b ];
  (match Dpll.solve ~budget:(Budget.v ~max_steps:0 ()) s with
  | Nca_sat.Solver_intf.Unknown e ->
      check "steps resource" true (e.Nca_obs.Exhausted.resource = Steps)
  | _ -> Alcotest.fail "expected Unknown");
  (* pure-propagation problems still finish under the same budget *)
  let s' = Dpll.create () in
  let c = Dpll.new_var s' in
  Dpll.add_clause s' [ Lit.pos c ];
  check "propagation-only sat at 0 steps" true
    (outcome_is_sat (Dpll.solve ~budget:(Budget.v ~max_steps:0 ()) s'))

(* ------------------------------------------------------------------ *)
(* Grounding functor *)

let test_grounding_counts () =
  (* start A(a), rule A(x) → ∃y E(x,y), domain {a, f}: universe is
     2 A-atoms + 4 E-atoms; one symmetry-usage variable for f *)
  let f = Term.cst "f_ground_counts" in
  let start = Instance.of_list [ Atom.app "A" [ Term.cst "a" ] ] in
  let rules = Parser.parse_rules "r: A(x) -> E(x,y)." in
  let inst =
    Fm.instantiate ~domain:[ Term.cst "a"; f ] ~sym_break:[ f ] start rules
  in
  check_int "universe" 6 (Array.length inst.Fm.universe);
  let vars, clauses = Fm.counts inst in
  check_int "vars = universe + usage var" 7 vars;
  (* 1 start unit + 2 rule clauses (one per ground body) + 4 usage
     implications for f's atoms *)
  check_int "clauses" 7 clauses

let test_sat_search_finds_model () =
  List.iter
    (fun name ->
      let entry = Rulesets.find name in
      match
        Finite_model.search ~fresh:1 entry.Rulesets.instance
          entry.Rulesets.rules
      with
      | Finite_model.Model m ->
          check (name ^ ": model checks") true
            (Fm_check.check ~start:entry.Rulesets.instance
               ~rules:entry.Rulesets.rules m
            = Ok ())
      | _ -> Alcotest.fail (name ^ ": expected a model"))
    [ "symmetric"; "succ_only"; "inclusion"; "fork" ]

let test_sat_example1_no_loop_free_model () =
  (* the paper's gap, decided by UNSAT instead of search exhaustion *)
  let entry = Rulesets.find "example1" in
  List.iter
    (fun fresh ->
      check
        (Fmt.str "example1 loop-free absent at +%d" fresh)
        true
        (Finite_model.loop_free_model_exists ~fresh ~e:e2
           entry.Rulesets.instance entry.Rulesets.rules
        = Finite_model.Absent))
    [ 0; 1; 2; 4 ]

let test_sat_respects_budget () =
  let entry = Rulesets.find "example1" in
  match
    Finite_model.search ~fresh:6 ~max_steps:1
      ~forbid:(Cq.loop_query e2) entry.Rulesets.instance entry.Rulesets.rules
  with
  | Finite_model.Exhausted e ->
      check "steps resource" true (e.Nca_obs.Exhausted.resource = Steps)
  | Finite_model.Model _ -> Alcotest.fail "expected exhaustion, got a model"
  | Finite_model.No_model ->
      (* acceptable only if UNSAT needed at most one decision per round *)
      Alcotest.fail "expected exhaustion, got a definitive negative"

let test_fm_check_rejects () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let start = Parser.instance "E(a,b), E(b,c)" in
  (* missing the transitive closure atom E(a,c) *)
  check "non-model rejected" true
    (Result.is_error (Fm_check.check ~start ~rules start));
  (* a genuine model, but violating the forbid query *)
  let m = Parser.instance "E(a,a)" in
  check "forbidden model rejected" true
    (Result.is_error
       (Fm_check.check ~forbid:(Cq.loop_query e2) ~start:m ~rules:[] m));
  check "good model accepted" true
    (Fm_check.check ~start ~rules (Parser.instance "E(a,b), E(b,c), E(a,c)")
    = Ok ())

let test_fresh_names_no_collision () =
  (* regression for the fixed "_m0"/"_m1" fresh constants: a start
     instance that already uses such a name must still get genuinely
     fresh elements. Forbidding E(x,y) ∧ E(y,x) (loops and 2-cycles)
     makes any model need a cycle of length ≥ 3 — impossible if a
     colliding name eats one of the two fresh slots. *)
  let start = Instance.of_list [ Atom.app "A" [ Term.cst "_m0" ] ] in
  let rules =
    Parser.parse_rules "r: A(x) -> E(x,y). s: E(x,y) -> E(y,z)."
  in
  let x = Term.var "x" and y = Term.var "y" in
  let forbid =
    Cq.boolean [ Atom.make e2 [ x; y ]; Atom.make e2 [ y; x ] ]
  in
  List.iter
    (fun (engine, outcome) ->
      match outcome with
      | Finite_model.Model m ->
          check (engine ^ ": model checks") true
            (Fm_check.check ~forbid ~start ~rules m = Ok ())
      | _ ->
          Alcotest.failf "%s: expected a 3-cycle model over the fresh elements"
            engine)
    [
      ("dfs", Fm_dfs.search ~fresh:2 ~forbid start rules);
      ("sat", Finite_model.search ~fresh:2 ~forbid start rules);
    ]

(* ------------------------------------------------------------------ *)
(* Differential: SAT ≡ DFS *)

let verdicts_agree name dfs sat =
  match (dfs, sat) with
  | Finite_model.Model _, Finite_model.Model _
  | Finite_model.No_model, Finite_model.No_model ->
      true
  | Finite_model.Exhausted _, _ | _, Finite_model.Exhausted _ ->
      (* a budgeted non-verdict never contradicts anything *)
      true
  | _ ->
      Alcotest.failf "%s: engines disagree (dfs %s, sat %s)" name
        (match dfs with
        | Finite_model.Model _ -> "model"
        | Finite_model.No_model -> "no-model"
        | Finite_model.Exhausted _ -> "exhausted")
        (match sat with
        | Finite_model.Model _ -> "model"
        | Finite_model.No_model -> "no-model"
        | Finite_model.Exhausted _ -> "exhausted")

let differential ?forbid ~fresh name start rules =
  let dfs = Fm_dfs.search ~fresh ?forbid start rules in
  let sat = Finite_model.search ~fresh ?forbid start rules in
  check (name ^ ": verdicts agree") true (verdicts_agree name dfs sat);
  match sat with
  | Finite_model.Model m ->
      check (name ^ ": sat model checks") true
        (Fm_check.check ?forbid ~start ~rules m = Ok ())
  | _ -> ()

let test_differential_zoo () =
  List.iter
    (fun entry ->
      List.iter
        (fun fresh ->
          differential ~fresh entry.Rulesets.name entry.Rulesets.instance
            entry.Rulesets.rules;
          differential ~forbid:(Cq.loop_query entry.Rulesets.e) ~fresh
            (entry.Rulesets.name ^ "+forbid")
            entry.Rulesets.instance entry.Rulesets.rules)
        [ 0; 1; 2 ])
    Rulesets.zoo

let linear_rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed -> Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_bound 5000))

let prop_sat_equals_dfs =
  QCheck.Test.make ~name:"sat ≡ dfs on random linear rule sets" ~count:40
    linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let sign = Rule.signature rules in
      let start = Rulesets.random_instance ~seed:11 ~constants:2 ~atoms:3 sign in
      List.iter
        (fun forbid ->
          differential ?forbid ~fresh:2 "random" start rules)
        [ None; Some (Cq.loop_query e2) ];
      true)

let props = List.map QCheck_alcotest.to_alcotest [ prop_sat_equals_dfs ]

let () =
  Alcotest.run "sat"
    [
      ( "dpll",
        [
          Alcotest.test_case "unit propagation" `Quick test_unit_propagation;
          Alcotest.test_case "conflict and backtrack" `Quick
            test_conflict_and_backtrack;
          Alcotest.test_case "unsat sanity" `Quick test_unsat_sanity;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "empty and tautology" `Quick
            test_empty_and_tautology;
          Alcotest.test_case "incremental blocking" `Quick
            test_incremental_blocking;
          Alcotest.test_case "budget unknown" `Quick test_budget_unknown;
        ] );
      ( "fm_inst",
        [
          Alcotest.test_case "grounding counts" `Quick test_grounding_counts;
          Alcotest.test_case "sat finds models" `Quick
            test_sat_search_finds_model;
          Alcotest.test_case "example1 loop-free absent" `Quick
            test_sat_example1_no_loop_free_model;
          Alcotest.test_case "budget respected" `Quick test_sat_respects_budget;
          Alcotest.test_case "checker rejects" `Quick test_fm_check_rejects;
          Alcotest.test_case "fresh names never collide" `Quick
            test_fresh_names_no_collision;
        ] );
      ("differential", Alcotest.test_case "zoo at fresh 0-2" `Slow
         test_differential_zoo
         :: props);
    ]
