(** Empirical validation of Theorem 7 (Ramsey for colored tournaments).

    Theorem 7 guarantees monochromatic sub-tournaments in large
    edge-colored tournaments. This module generates random tournaments
    and colorings, extracts monochromatic sub-tournaments by exact
    search, and checks the guarantee at the known thresholds — e.g. any
    2-coloring of a tournament of size [R(3,3) = 6] contains a
    monochromatic 3-tournament. This is the experimental counterpart of
    the Ramsey step in Proposition 41. *)

open Nca_graph

val random_tournament : seed:int -> size:int -> Digraph.Term_graph.t
(** A uniformly-oriented random tournament on [size] vertices
    (deterministic in [seed]); each pair gets exactly one direction. *)

val random_coloring :
  seed:int -> colors:int -> Digraph.Term_graph.t ->
  ((Nca_logic.Term.t * Nca_logic.Term.t) * int) list
(** Color every edge uniformly at random. *)

val monochromatic_tournament :
  ((Nca_logic.Term.t * Nca_logic.Term.t) * int) list -> size:int ->
  (int * Nca_logic.Term.t list) option
(** A monochromatic sub-tournament of at least the given size in some
    color, if one exists. *)

val check_theorem7 :
  seed:int -> colors:int -> target:int -> trials:int -> bool
(** Run [trials] random colorings of tournaments of size
    [Ramsey.upper_bound [target; …; target]] and verify each contains a
    monochromatic [target]-tournament. [true] = no counterexample (as
    Theorem 7 demands). *)
