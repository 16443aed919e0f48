(** MACE-style SAT instantiation of the bounded finite-model problem.

    [Make (Solver)] grounds an instance + rule set over a fixed domain
    into CNF through the abstract {!Solver_intf.S} seam:

    - one propositional variable per ground atom (predicates in name
      order, argument tuples lexicographic in domain order, so the
      numbering is reproducible);
    - unit clauses asserting the start instance;
    - rule-satisfaction clauses — every ground body implies some ground
      head instantiation, via auxiliary selector variables for
      multi-atom heads;
    - negative clauses forbidding every instantiation of the (monotone
      Boolean) [forbid] query;
    - symmetry-breaking clauses ordering the fresh domain elements: a
      fresh element may only be {e used} (occur in a true atom) when its
      predecessor is, cutting the [k!] permutations of unused fresh
      elements to one representative. Sound because fresh elements are
      generated never-before-interned names, absent from start, rules
      and [forbid] (see the {!Nca_logic.Names.fresh} contract).

    The ground universe closes over constants mentioned by the rules
    (rule heads can pull them into any model); existential disjunctions
    range over the same closed domain, so satisfiability is decided
    exactly for "is there a model over at most this domain". *)

open Nca_logic

type outcome =
  | Model of Instance.t
  | No_model  (** unsatisfiable at every deepening level — definitive *)
  | Exhausted of Nca_obs.Exhausted.t

exception Stop of Nca_obs.Exhausted.t
(** Raised by {!Make.instantiate} when the budget interrupts grounding. *)

val assignments : Term.t list -> Term.t list -> Subst.t Seq.t
(** All substitutions of the variables over the domain, lazily,
    lexicographic in variable then domain list order. The grounding
    enumerates body and existential instantiations with it; the test
    oracle's depth-first completion tries its candidates in the same
    order. *)

val rule_constants : domain:Term.t list -> Rule.t list -> Term.t list
(** Constants occurring in the rules but not in [domain], in name
    order. *)

module Make (S : Solver_intf.S) : sig
  type inst = {
    solver : S.t;
    universe : Atom.t array;  (** ground atoms, in variable order *)
    var_of : int Hashtbl.Make(Atom).t;
  }

  val instantiate :
    ?forbid:Cq.t ->
    ?budget:Nca_obs.Budget.t ->
    domain:Term.t list ->
    sym_break:Term.t list ->
    Instance.t ->
    Rule.t list ->
    inst
  (** Ground the problem over [domain]. [sym_break] lists the fresh
      (interchangeable) elements, in order; it must be a sublist of
      [domain]. Raises {!Stop} when the budget interrupts grounding. *)

  val solve_inst :
    ?budget:Nca_obs.Budget.t ->
    inst ->
    [ `Sat of Instance.t | `Unsat | `Unknown of Nca_obs.Exhausted.t ]
  (** Run the backend and decode a satisfying assignment back to an
      instance (the true ground atoms). *)

  val counts : inst -> int * int
  (** [(variables, clauses)] of the grounding, for tests and stats. *)

  val search :
    ?forbid:Cq.t ->
    ?budget:Nca_obs.Budget.t ->
    base:Term.t list ->
    fresh:Term.t list ->
    Instance.t ->
    Rule.t list ->
    outcome
  (** Iterative deepening: ground and solve over [base] plus the first
      [k] elements of [fresh], for [k = 0, 1, …]. A satisfiable round
      returns its model; an unsatisfiable final round is a definitive
      [No_model]. The budget's step bound (solver decisions) is shared
      across rounds; per-round counters land in telemetry
      ([sat.rounds], [sat.vars], [sat.clauses], [sat.decisions],
      [sat.conflicts], [sat.propagations]) and in the process-wide
      {!Stats} aggregate. *)
end
