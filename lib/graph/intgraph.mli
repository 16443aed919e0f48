(** Imperative digraphs over dense integer vertex ids.

    The analysis layers intern their vertices — predicate positions,
    existential variables, rules — into dense ids [0 .. n-1] and run
    reachability, topological sorting and cycle search here, instead of
    on structural maps ({!Digraph}). Edges are deduplicated on
    insertion; successor lists keep first-insertion order. Ids are an
    internal representation only: every boundary whose order reaches
    printed output must sort by the structural order of the underlying
    vertices, not by id. *)

type t

val create : int -> t
(** [create n] is the edgeless graph over vertices [0 .. n-1]. *)

val size : t -> int
(** The number of vertices (fixed at creation). *)

val num_edges : t -> int
(** The number of distinct edges inserted so far. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the edge [u → v]; inserting an edge twice
    is a no-op. Raises [Invalid_argument] when a vertex is out of
    range. *)

val succs : t -> int -> int list
(** Successors of a vertex in first-insertion order, duplicate-free. *)

val edges : t -> (int * int) list
(** Every edge, grouped by source vertex in increasing id order,
    successors in first-insertion order. *)

val reaches : t -> int -> int -> bool
(** [reaches g s t]: is there a path of {e at least one} edge from [s]
    to [t]?  In particular [reaches g v v] holds only when [v] lies on
    a cycle. *)

val topo_sort : t -> int list option
(** A topological order of all vertices (sources first), or [None] when
    the graph has a cycle. *)

val find_cycle : t -> int list option
(** A cycle [[v0; v1; …; vk]] with an edge from each vertex to the next
    and from [vk] back to [v0] (a self-loop yields [[v]]); [None] when
    the graph is acyclic. *)
