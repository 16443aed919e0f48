(** Head streamlining [∇] (Section 4.3).

    Over a binary signature, each non-Datalog rule
    [ρ = B(x̄, ȳ) → ∃z̄ H(ȳ, z̄)] is replaced by three rules over fresh
    predicates [A₀^ρ], [A_{y,w}^ρ], [B_{y',z}^ρ]:
    - [ρ_init : B → ∃w A₀^ρ(w) ∧ ⋀_{y∈ȳ} A^ρ_{y,w}(y, w)]
    - [ρ_∃ : A₀^ρ(w) ∧ ⋀ A^ρ_{y,w}(y, w) → ∃z̄ ⋀_{y'∈ȳ∪{w}, z∈z̄} B^ρ_{y',z}(y', z)]
    - [ρ_DL : ⋀ B^ρ_{y',z}(y', z) → H(ȳ, z̄)]

    Datalog rules are kept unchanged (the regality conditions only
    constrain non-Datalog rules, Definitions 21–22, and [ρ_∃] would have
    an empty head on a Datalog rule).

    Lemma 24: the chase is preserved up to homomorphic equivalence when
    restricted to the original signature. Lemma 25: [∇(S)] is
    forward-existential and predicate-unique, and UCQ-rewritable whenever
    [S] is. *)

open Nca_logic

val of_rule : Rule.t -> Rule.t list
(** [[ρ_init; ρ_∃; ρ_DL]] for a non-Datalog rule; [[ρ]] for a Datalog
    rule. *)

val apply : Rule.t list -> Rule.t list
(** [∇(S)]. *)

val original_signature : Rule.t list -> Symbol.Set.t
(** The signature of the input rule set — what the chase must be
    restricted to when checking Lemma 24. *)
