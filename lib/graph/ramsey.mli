(** Ramsey numbers for edge-colored tournaments (Theorem 7).

    Theorem 7 states: for any [s₁, …, s_k ≥ 1] there is [R(s₁, …, s_k)]
    such that any tournament of that size whose edges are k-colored contains
    a sub-tournament of size [s_i] monochromatic in some color [i].

    Because the tournaments of this paper are inclusive-or structures,
    monochromatic sub-tournament extraction behaves exactly like clique
    Ramsey theory on the orientation closure, so we compute the classical
    multicolor (graph) Ramsey upper bounds:
    - [R(s) = s] for one color;
    - [R(…, 1, …) = 1] and [R(…, 2, s₂, …) = R(s₂, …)];
    - Greenwood–Gleason: [R(s₁,…,s_k) ≤ 2 - k + Σᵢ R(s₁,…,sᵢ-1,…,s_k)];
    seeded with the known small exact values (e.g. [R(3,3) = 6],
    [R(4,4) = 18], [R(3,3,3) = 17]).

    The bound [R(4, …, 4)] with one argument per disjunct of the injective
    rewriting [Q_⊠] is the tournament-size bound the paper extracts in
    Question 46. *)

val upper_bound : int list -> int
(** [upper_bound [s1; …; sk]] — an upper bound on [R(s1, …, sk)]. Raises
    [Invalid_argument] on an empty list or arguments [< 1]. *)

val four_clique_bound : colors:int -> int
(** [four_clique_bound ~colors:k] is [upper_bound [4; …; 4]] with [k]
    fours: the paper's bound [N(4, …, 4)] on tournament size for a rule set
    whose injective rewriting of [E] has [k] disjuncts (Question 46).
    The bound outgrows [int] from [k = 12] on: it then saturates at
    [max_int] (as does {!upper_bound} on any argument list), and since
    it is monotone in [k] the search stops at the first saturating
    count, so any [k] answers instantly. *)

val is_exact : int list -> bool
(** Whether the returned value is a known exact Ramsey number rather than
    a recursive upper bound. *)
