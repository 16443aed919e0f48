open Nca_logic

(* q ⊑ q' iff q' maps homomorphically into q with answers aligned:
   Cq.subsumes q' q is exactly that homomorphism. *)
let contained q q' = Cq.subsumes q' q
let equivalent q q' = contained q q' && contained q' q

let canonical_database q =
  let freeze =
    Term.Set.fold
      (fun v acc ->
        match v with
        | Term.Var name -> Subst.add v (Term.cst ("k!" ^ Names.name name)) acc
        | Term.Null n -> Subst.add v (Term.cst (Fmt.str "k!n%d" n)) acc
        | Term.Cst _ -> acc)
      (Cq.vars q) Subst.empty
  in
  ( Instance.of_list (Subst.apply_atoms freeze (Cq.body q)),
    List.map (Subst.apply freeze) (Cq.answer q) )

let minimize q =
  (* Drop atoms one at a time while the smaller query stays equivalent;
     restart after each successful drop (the core is reached when no
     single atom can go — folklore greedy core computation, correct for
     CQ bodies because equivalence is transitive). *)
  let rec shrink body =
    let try_drop i =
      let candidate = List.filteri (fun j _ -> j <> i) body in
      if candidate = [] then None
      else
        match Cq.make ~answer:(Cq.answer q) candidate with
        | candidate_q ->
            if equivalent q candidate_q then Some candidate else None
        | exception Invalid_argument _ -> None
    in
    let rec first i =
      if i >= List.length body then None
      else match try_drop i with Some b -> Some b | None -> first (i + 1)
    in
    match first 0 with None -> body | Some smaller -> shrink smaller
  in
  Cq.make ~answer:(Cq.answer q)
    (shrink (List.sort_uniq Atom.compare_structural (Cq.body q)))

let is_minimal q = Cq.size (minimize q) = Cq.size q

let ucq_contained u u' =
  List.for_all
    (fun q -> List.exists (fun q' -> contained q q') (Ucq.disjuncts u'))
    (Ucq.disjuncts u)

let ucq_equivalent u u' = ucq_contained u u' && ucq_contained u' u

let minimize_ucq u =
  let minimized = List.map minimize (Ucq.disjuncts u) in
  Ucq.cover (Ucq.make minimized)
