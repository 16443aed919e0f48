(* The bundled pure-OCaml backend: DPLL with two watched literals,
   conflict-driven clause learning (first-UIP), phase saving and
   geometric restarts. Zero dependencies beyond the stdlib; every
   unbounded loop checkpoints the budget in the decision loop.

   Determinism: branching follows the static variable order (lowest
   unassigned id first) with saved phases initialised to false, so the
   first model found assigns as few atoms true as propagation allows —
   small models, and byte-stable CLI goldens. *)

module Lit = Solver_intf.Lit
module Budget = Nca_obs.Budget

let ev_restart = Nca_obs.Events.label "sat.restart"

type value = Vundef | Vtrue | Vfalse

type t = {
  mutable nvars : int;
  (* clause store: input clauses then learnt clauses, one array each;
     positions 0 and 1 of every stored clause are the watched literals *)
  mutable clauses : int array array;
  mutable nclauses : int;
  mutable watches : int list array;  (* literal -> indices into clauses *)
  mutable assign : value array;  (* var -> value *)
  mutable polarity : bool array;  (* var -> saved phase *)
  mutable reason : int array;  (* var -> implying clause, -1 for decisions *)
  mutable level : int array;  (* var -> decision level of its assignment *)
  mutable trail : int array;  (* assigned literals, oldest first *)
  mutable trail_n : int;
  mutable trail_lim : int array;  (* level l starts at trail_lim.(l), l >= 1 *)
  mutable dlevel : int;
  mutable qhead : int;  (* propagation queue head (index into trail) *)
  mutable order_head : int;  (* every var below it is assigned *)
  mutable units : int list;  (* root facts, re-asserted at each solve *)
  mutable root_conflict : bool;  (* an empty clause was added *)
  mutable seen : bool array;  (* conflict-analysis scratch *)
  mutable added : int;
  mutable learnt : int;
  mutable decisions : int;
  mutable conflicts : int;
  mutable propagations : int;
}

let create () =
  {
    nvars = 0;
    clauses = [||];
    nclauses = 0;
    watches = [||];
    assign = [||];
    polarity = [||];
    reason = [||];
    level = [||];
    trail = [||];
    trail_n = 0;
    trail_lim = [||];
    dlevel = 0;
    qhead = 0;
    order_head = 0;
    units = [];
    root_conflict = false;
    seen = [||];
    added = 0;
    learnt = 0;
    decisions = 0;
    conflicts = 0;
    propagations = 0;
  }

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  if v >= Array.length s.assign then begin
    let n = max 16 (2 * Array.length s.assign) in
    let grow a fill =
      let a' = Array.make n fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    s.assign <- grow s.assign Vundef;
    s.polarity <- grow s.polarity false;
    s.reason <- grow s.reason (-1);
    s.level <- grow s.level 0;
    s.seen <- grow s.seen false;
    let t = Array.make n 0 in
    Array.blit s.trail 0 t 0 s.trail_n;
    s.trail <- t;
    let tl = Array.make (n + 2) 0 in
    Array.blit s.trail_lim 0 tl 0 (Array.length s.trail_lim);
    s.trail_lim <- tl;
    let w = Array.make (2 * n) [] in
    Array.blit s.watches 0 w 0 (Array.length s.watches);
    s.watches <- w
  end;
  v

let lit_value s l =
  match s.assign.(Lit.var l) with
  | Vundef -> Vundef
  | Vtrue -> if Lit.is_pos l then Vtrue else Vfalse
  | Vfalse -> if Lit.is_pos l then Vfalse else Vtrue

let push_clause s arr =
  if s.nclauses = Array.length s.clauses then begin
    let n = max 16 (2 * Array.length s.clauses) in
    let a = Array.make n [||] in
    Array.blit s.clauses 0 a 0 s.nclauses;
    s.clauses <- a
  end;
  let ci = s.nclauses in
  s.clauses.(ci) <- arr;
  s.nclauses <- ci + 1;
  ci

let add_clause s lits =
  let lits = List.sort_uniq Int.compare lits in
  List.iter
    (fun l ->
      if Lit.var l >= s.nvars || l < 0 then
        invalid_arg "Dpll.add_clause: literal over an unallocated variable")
    lits;
  let tautology = List.exists (fun l -> List.mem (Lit.negate l) lits) lits in
  if not tautology then begin
    s.added <- s.added + 1;
    match lits with
    | [] -> s.root_conflict <- true
    | [ l ] -> s.units <- l :: s.units
    | l0 :: l1 :: _ ->
        let arr = Array.of_list lits in
        let ci = push_clause s arr in
        s.watches.(l0) <- ci :: s.watches.(l0);
        s.watches.(l1) <- ci :: s.watches.(l1)
  end

(* The encoder's distinguished clause kinds: this backend has no native
   symmetry or cardinality support, so they are ordinary clauses. *)
let add_symmetry_clause = add_clause
let add_at_least_one_clause = add_clause
let add_at_most_one_clause = add_clause

(* Assign [lit] true with [reason] (-1: decision or root fact). False on
   conflict with the current assignment. *)
let enqueue s lit reason =
  match lit_value s lit with
  | Vtrue -> true
  | Vfalse -> false
  | Vundef ->
      let v = Lit.var lit in
      s.assign.(v) <- (if Lit.is_pos lit then Vtrue else Vfalse);
      s.polarity.(v) <- Lit.is_pos lit;
      s.reason.(v) <- reason;
      s.level.(v) <- s.dlevel;
      s.trail.(s.trail_n) <- lit;
      s.trail_n <- s.trail_n + 1;
      s.propagations <- s.propagations + 1;
      true

(* Exhaustive unit propagation; the conflicting clause's index, or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_n do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let falsified = Lit.negate p in
    let ws = s.watches.(falsified) in
    s.watches.(falsified) <- [];
    let rec process = function
      | [] -> ()
      | ci :: rest -> (
          let c = s.clauses.(ci) in
          if c.(0) = falsified then begin
            c.(0) <- c.(1);
            c.(1) <- falsified
          end;
          if lit_value s c.(0) = Vtrue then begin
            s.watches.(falsified) <- ci :: s.watches.(falsified);
            process rest
          end
          else
            let n = Array.length c in
            let rec find k =
              if k >= n then -1
              else if lit_value s c.(k) <> Vfalse then k
              else find (k + 1)
            in
            match find 2 with
            | k when k >= 0 ->
                (* move the watch to an unfalsified literal *)
                c.(1) <- c.(k);
                c.(k) <- falsified;
                s.watches.(c.(1)) <- ci :: s.watches.(c.(1));
                process rest
            | _ ->
                if enqueue s c.(0) ci then begin
                  s.watches.(falsified) <- ci :: s.watches.(falsified);
                  process rest
                end
                else begin
                  (* conflict: keep the unvisited watchers where they were *)
                  s.watches.(falsified) <-
                    List.rev_append rest (ci :: s.watches.(falsified));
                  conflict := ci
                end)
    in
    process ws
  done;
  !conflict

let backjump s lvl =
  if s.dlevel > lvl then begin
    let upto = s.trail_lim.(lvl + 1) in
    for i = s.trail_n - 1 downto upto do
      let v = Lit.var s.trail.(i) in
      s.assign.(v) <- Vundef;
      s.reason.(v) <- -1;
      if v < s.order_head then s.order_head <- v
    done;
    s.trail_n <- upto;
    s.qhead <- upto;
    s.dlevel <- lvl
  end

(* First-UIP conflict analysis: resolve the conflict clause backwards
   along the trail until exactly one literal of the current decision
   level remains. Returns the asserting literal and the other learnt
   literals (all from lower levels). *)
let analyze s conflict_ci =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_n - 1) in
  let c = ref s.clauses.(conflict_ci) in
  let asserting = ref 0 in
  let continue = ref true in
  while !continue do
    let lits = !c in
    (* position 0 of a reason clause is the literal it implied — skip it *)
    let start = if !p < 0 then 0 else 1 in
    for j = start to Array.length lits - 1 do
      let q = lits.(j) in
      let v = Lit.var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        if s.level.(v) >= s.dlevel then incr counter
        else learnt := q :: !learnt
      end
    done;
    while not s.seen.(Lit.var s.trail.(!index)) do
      decr index
    done;
    let pl = s.trail.(!index) in
    decr index;
    let v = Lit.var pl in
    s.seen.(v) <- false;
    decr counter;
    p := pl;
    if !counter = 0 then begin
      asserting := Lit.negate pl;
      continue := false
    end
    else c := s.clauses.(s.reason.(v))
  done;
  let rest = !learnt in
  List.iter (fun q -> s.seen.(Lit.var q) <- false) rest;
  (!asserting, rest)

(* Install the learnt clause, backjump to its assertion level, and
   assert the UIP literal. *)
let record_learnt s asserting rest =
  s.learnt <- s.learnt + 1;
  match rest with
  | [] ->
      (* a learnt fact: persists across solves via the unit list *)
      s.units <- asserting :: s.units;
      backjump s 0;
      ignore (enqueue s asserting (-1))
  | _ ->
      let blevel =
        List.fold_left (fun m q -> max m s.level.(Lit.var q)) 0 rest
      in
      let arr = Array.of_list (asserting :: rest) in
      (* watch the asserting literal and one literal of the backjump
         level, so the watch invariant holds after the jump *)
      let ki = ref 1 in
      for j = 1 to Array.length arr - 1 do
        if s.level.(Lit.var arr.(j)) = blevel then ki := j
      done;
      let tmp = arr.(1) in
      arr.(1) <- arr.(!ki);
      arr.(!ki) <- tmp;
      backjump s blevel;
      let ci = push_clause s arr in
      s.watches.(arr.(0)) <- ci :: s.watches.(arr.(0));
      s.watches.(arr.(1)) <- ci :: s.watches.(arr.(1));
      ignore (enqueue s asserting ci)

let rec pick_branch_var s =
  if s.order_head >= s.nvars then -1
  else if s.assign.(s.order_head) = Vundef then s.order_head
  else begin
    s.order_head <- s.order_head + 1;
    pick_branch_var s
  end

let solve ?(budget = Budget.unlimited) s =
  (* full reset: assignments are per-solve, clauses persist *)
  for v = 0 to s.nvars - 1 do
    s.assign.(v) <- Vundef;
    s.reason.(v) <- -1;
    s.level.(v) <- 0
  done;
  s.trail_n <- 0;
  s.qhead <- 0;
  s.dlevel <- 0;
  s.order_head <- 0;
  if s.root_conflict then Solver_intf.Unsat
  else if not (List.for_all (fun l -> enqueue s l (-1)) s.units) then
    Solver_intf.Unsat
  else begin
    let decisions0 = s.decisions in
    let restart_limit = ref 100 in
    let conflicts_since = ref 0 in
    let result = ref None in
    while !result = None do
      let ci = propagate s in
      if ci >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        incr conflicts_since;
        if s.dlevel = 0 then result := Some Solver_intf.Unsat
        else begin
          let asserting, rest = analyze s ci in
          record_learnt s asserting rest;
          if !conflicts_since >= !restart_limit then begin
            conflicts_since := 0;
            restart_limit := !restart_limit * 2;
            Nca_obs.Telemetry.instant ev_restart ~arg:s.conflicts;
            backjump s 0
          end
        end
      end
      else
        match pick_branch_var s with
        | -1 -> result := Some Solver_intf.Sat
        | v -> (
            s.decisions <- s.decisions + 1;
            let used = s.decisions - decisions0 in
            let verdict =
              match Budget.steps budget ~used with
              | Some e -> Some e
              | None ->
                  if used land 255 = 0 then Budget.interrupted budget
                  else None
            in
            match verdict with
            | Some e -> result := Some (Solver_intf.Unknown e)
            | None ->
                s.dlevel <- s.dlevel + 1;
                s.trail_lim.(s.dlevel) <- s.trail_n;
                let lit = if s.polarity.(v) then Lit.pos v else Lit.neg v in
                ignore (enqueue s lit (-1)))
    done;
    Option.get !result
  end

let model_value s v = s.assign.(v) = Vtrue

let stats s =
  {
    Solver_intf.vars = s.nvars;
    clauses = s.added;
    learnt = s.learnt;
    decisions = s.decisions;
    conflicts = s.conflicts;
    propagations = s.propagations;
  }
