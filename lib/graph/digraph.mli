(** Directed graphs over an arbitrary ordered vertex type.

    A (directed) graph is a pair [⟨V, E⟩] with [E ⊆ V × V] (Section 2.4).
    Loops (edges from a node to itself) are allowed; tournament and DAG
    analysis live in {!module:Tournament} and here respectively. *)

module type VERTEX = sig
  type t

  val compare : t -> t -> int
  val pp : t Fmt.t
end

module Make (V : VERTEX) : sig
  type t

  module VSet : Set.S with type elt = V.t
  module VMap : Map.S with type key = V.t

  val empty : t
  val add_vertex : V.t -> t -> t
  val add_edge : V.t -> V.t -> t -> t
  val of_edges : (V.t * V.t) list -> t

  val vertices : t -> V.t list
  val edges : t -> (V.t * V.t) list
  val num_vertices : t -> int
  val num_edges : t -> int

  val mem_vertex : V.t -> t -> bool
  val has_edge : V.t -> V.t -> t -> bool
  val succs : V.t -> t -> VSet.t
  val preds : V.t -> t -> VSet.t
  val out_degree : V.t -> t -> int
  val in_degree : V.t -> t -> int

  val loops : t -> V.t list
  (** Vertices [v] with an edge [v → v]. *)

  val has_loop : t -> bool

  val is_dag : t -> bool
  (** No directed cycle (loops included). *)

  val topo_sort : t -> V.t list option
  (** A topological order of the vertices, or [None] on a cyclic graph. *)

  val reaches : V.t -> V.t -> t -> bool
  (** [reaches s t g]: is there a non-empty directed path from [s] to [t]?
    This is the strict order [s <_I t] of Definition 38 when [g] is a DAG. *)

  val maximal_vertices : t -> V.t list
  (** Vertices with no outgoing edge to a different vertex — the
      [≤]-maximal elements of Definition 38 on a DAG. *)

  val restrict : VSet.t -> t -> t
  (** Induced subgraph. *)

  val undirected_neighbors : V.t -> t -> VSet.t
  (** Successors and predecessors combined, excluding the vertex itself. *)

  val weakly_connected_components : t -> VSet.t list

  val pp : t Fmt.t
end

module Term_graph : module type of Make (struct
  type t = Nca_logic.Term.t

  let compare = Nca_logic.Term.compare
  let pp = Nca_logic.Term.pp
end)

val of_instance : Nca_logic.Symbol.t -> Nca_logic.Instance.t -> Term_graph.t
(** The E-graph of an instance: vertices are all terms of the active domain,
    edges the pairs of the given binary predicate. *)

val of_atoms : Nca_logic.Atom.t list -> Term_graph.t
(** The graph of a set of binary atoms, ignoring predicates (used for the
    order [<_q] over a query's variables, Definition 38): every binary atom
    [P(s, t)] contributes an edge [s → t]; atoms of other arities only
    contribute their terms as vertices. *)
