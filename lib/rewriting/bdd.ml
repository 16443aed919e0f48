open Nca_logic

type verdict = {
  query : Cq.t;
  constant : int option;
  rewriting : Ucq.t;
  stopped : Nca_obs.Exhausted.t option;
}

let for_query ?max_rounds ?max_disjuncts ?budget rules q =
  let outcome = Rewrite.rewrite ?max_rounds ?max_disjuncts ?budget rules q in
  {
    query = q;
    constant = (if outcome.complete then Some outcome.rounds else None);
    rewriting = outcome.ucq;
    stopped = outcome.stopped;
  }

let for_signature ?max_rounds ?max_disjuncts ?budget rules sign =
  Symbol.sorted_elements sign
  |> List.filter (fun p -> not (Symbol.equal p Symbol.top))
  |> List.map (fun p ->
         for_query ?max_rounds ?max_disjuncts ?budget rules (Cq.atom_query p))

let certified verdicts =
  List.for_all (fun v -> Option.is_some v.constant) verdicts
