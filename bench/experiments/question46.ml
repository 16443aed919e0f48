open Nca_logic
open Nca_core

type audit = {
  name : string;
  bdd : bool;
  loop : bool;
  max_tournament : int;
  rewriting_disjuncts : int;
  bound : int;
  within_bound : bool;
}

(* R(4,…,4) grows as a tower; past a few colors only "huge" matters. *)
let capped_bound colors =
  if colors > 6 then max_int / 2
  else Nca_graph.Ramsey.four_clique_bound ~colors:(max 1 colors)

let audit ?(depth = 4) ?max_rounds (entry : Rulesets.entry) =
  let bdd =
    Nca_rewriting.Bdd.certified
      (Nca_rewriting.Bdd.for_signature ?max_rounds entry.rules
         (Rule.signature entry.rules))
  in
  let pipeline =
    Nca_surgery.Pipeline.regalize ?max_rounds entry.instance entry.rules
  in
  let analysis =
    Witness.analyze ~depth ?max_rounds ~e:entry.e pipeline.final
  in
  let g = Nca_graph.Digraph.of_instance entry.e analysis.full in
  let loop = Cq.holds analysis.full (Cq.loop_query entry.e) in
  let max_tournament = Nca_graph.Tournament.max_tournament_size g in
  let disjuncts = Ucq.size analysis.rewriting in
  let bound = capped_bound disjuncts in
  {
    name = entry.name;
    bdd;
    loop;
    max_tournament;
    rewriting_disjuncts = disjuncts;
    bound;
    within_bound = loop || max_tournament <= bound;
  }

let pp ppf a =
  Fmt.pf ppf "%s: bdd=%b loop=%b tournament=%d |Q_⊠|=%d bound=%s within=%b"
    a.name a.bdd a.loop a.max_tournament a.rewriting_disjuncts
    (if a.bound >= max_int / 2 then "huge" else string_of_int a.bound)
    a.within_bound
