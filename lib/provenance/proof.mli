(** Derivation DAGs over facts, and the independent certificate checker.

    This is {!Nca_chase.Derivation} generalized from terms to facts: a
    proof node justifies one fact either as an input (leaf) or as the
    head image of a rule under a homomorphism whose instantiated body is
    exactly the premises. {!of_fact} reads the DAG off the ambient
    {!Provenance} store; {!check} replays it bottom-up against a rule set
    {e without} consulting the store or re-running any engine — the
    certificate discipline: what the engines emit, an independent referee
    can verify. *)

open Nca_logic

type t = {
  fact : Atom.t;
  rule : Rule.t option;  (** [None] for input facts *)
  hom : Subst.t;
      (** body homomorphism, extended to existential variables — applying
          it to the rule's body yields the premises' facts, to the head a
          list containing [fact] *)
  round : int;  (** 0 for inputs *)
  premises : t list;  (** sub-proofs, in rule-body order *)
}

val of_fact : Atom.t -> t
(** The derivation DAG of a fact, from the ambient {!Provenance} store.
    Shared premises are physically shared (each distinct fact is expanded
    once). A fact without a store entry — an input, or a fact derived
    while recording was off — becomes a leaf. *)

val fold_distinct : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Fold over the distinct facts of the DAG, premises before conclusions
    (each distinct fact visited exactly once) — the traversal behind
    every aggregate below and the JSON/DOT exporters. *)

val depth : t -> int
(** Longest chain of rule applications (0 for a leaf); each distinct fact
    is measured once. *)

val size : t -> int
(** Number of distinct facts in the DAG. *)

val rules_used : t -> Rule.t list
(** Rules along the proof, deduplicated (by rule, not by label), in
    first-use order of a premises-first traversal. *)

val facts : t -> Atom.t list
(** Every distinct fact of the DAG, premises before conclusions
    (topological, deterministic). *)

type error = { fact : Atom.t; reason : string }
(** The first step that failed to replay, with a human-readable reason. *)

val check : rules:Rule.t list -> input:Instance.t -> t -> (unit, error) result
(** Replay the proof bottom-up: every leaf must be an input fact; every
    inner node must name a rule of [rules] whose instantiated body is
    exactly its premises' facts and whose instantiated head contains the
    node's fact. Rejects — with the offending step — any proof whose body
    image is not satisfied by its premises. Purely structural: no engine
    runs, no store reads. *)

val pp_error : error Fmt.t

val pp : rules:Rule.t list -> t Fmt.t
(** An indented tree, one line per step, naming each step's rule by
    [Rule.label rules]; a fact already printed earlier is elided as
    ["… (shown above)"] so shared sub-DAGs stay readable. *)

val to_dot : ?name:string -> t -> string
(** The DAG as Graphviz DOT ({!Nca_graph.Dot.of_dag}): one box per fact,
    inputs filled, premise → conclusion edges labelled by the rule. *)
