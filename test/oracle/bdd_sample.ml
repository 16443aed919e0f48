(* Definition 2 checked on sample instances: the sampling differential
   behind Proposition 4's rewritings. *)

open Nca_logic
module Chase = Nca_chase.Chase

(* For each sample [I], [Ch(I,R) ⊨ q ⟺ I ⊨ Q]. The chase is truncated at
   [depth], so a truncated chase may only miss what the rewriting
   anticipates, never the converse. *)
let cross_validate ?(depth = 6) rules q rewriting instances =
  List.for_all
    (fun i ->
      let chase = Chase.run ~max_depth:depth i rules in
      let chase_side = Cq.holds chase.instance q in
      let rewrite_side = Ucq.holds i rewriting in
      if chase.saturated then chase_side = rewrite_side
      else (not chase_side) || rewrite_side)
    instances
