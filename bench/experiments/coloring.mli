(** Graph coloring — the measure behind Conjecture 44.

    The paper's discussion (Section 6) conjectures that UCQ-rewritable
    rule sets cannot define structures of arbitrarily high chromatic
    number without entailing [Loop_E]. A proper coloring here colors the
    {e orientation closure}: vertices joined by an edge in either
    direction get distinct colors; a graph with a loop has no proper
    coloring at all.

    Erdős' theorem (Thm. 45) is why the conjecture needs new ideas: high
    chromatic number does not require any 4-clique. The module provides a
    greedy upper bound and an exact small-k decision procedure, enough to
    chart chromatic growth of chase prefixes. *)

open Nca_graph

val greedy_chromatic : Digraph.Term_graph.t -> int option
(** Largest-first greedy coloring of the orientation closure; an upper
    bound on the chromatic number. [None] when the graph has a loop. *)

val is_k_colorable : int -> Digraph.Term_graph.t -> bool
(** Exact backtracking test (exponential; intended for chase-prefix
    sizes). Loops make every [k] fail. *)

val chromatic_number : ?max_k:int -> Digraph.Term_graph.t -> int option
(** The exact chromatic number of the orientation closure, searched up to
    [max_k] (default: the greedy bound). [None] when the graph has a
    loop. *)

val coloring : int -> Digraph.Term_graph.t -> (Nca_logic.Term.t * int) list option
(** A witness proper [k]-coloring, when one exists. *)

val clique_lower_bound : Digraph.Term_graph.t -> int
(** Any tournament forces that many colors: [χ ≥ max tournament size]. *)
