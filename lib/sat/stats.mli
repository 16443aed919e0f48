(** Process-wide SAT solver totals, for [--stats-json].

    One solver instance is created per iterative-deepening round; this
    aggregate sums their lifetime counters so the stats report (schema
    v5's ["sat"] block) can show what the whole invocation spent. *)

type totals = {
  solves : int;  (** solver rounds run *)
  vars : int;
  clauses : int;
  learnt : int;
  decisions : int;
  conflicts : int;
  propagations : int;
}

val record : Solver_intf.stats -> unit
(** Fold one solver's lifetime counters into the totals. *)

val snapshot : unit -> totals
val reset : unit -> unit
