(* Process-wide SAT totals, mirroring [Nca_plan.Cache.stats]: the
   engine records after each solver round, the stats report reads the
   aggregate. *)

type totals = {
  solves : int;
  vars : int;
  clauses : int;
  learnt : int;
  decisions : int;
  conflicts : int;
  propagations : int;
}

let solves = ref 0
let vars = ref 0
let clauses = ref 0
let learnt = ref 0
let decisions = ref 0
let conflicts = ref 0
let propagations = ref 0

let record (s : Solver_intf.stats) =
  incr solves;
  vars := !vars + s.vars;
  clauses := !clauses + s.clauses;
  learnt := !learnt + s.learnt;
  decisions := !decisions + s.decisions;
  conflicts := !conflicts + s.conflicts;
  propagations := !propagations + s.propagations

let snapshot () =
  {
    solves = !solves;
    vars = !vars;
    clauses = !clauses;
    learnt = !learnt;
    decisions = !decisions;
    conflicts = !conflicts;
    propagations = !propagations;
  }

let reset () =
  solves := 0;
  vars := 0;
  clauses := 0;
  learnt := 0;
  decisions := 0;
  conflicts := 0;
  propagations := 0
