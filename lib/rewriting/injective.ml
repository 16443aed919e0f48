open Nca_logic

(* All partitions of a list, as lists of non-empty blocks. *)
let rec partitions = function
  | [] -> [ [] ]
  | x :: rest ->
      List.concat_map
        (fun blocks ->
          (* x in its own block, or added to an existing block *)
          ([ x ] :: blocks)
          :: List.mapi
               (fun i _ ->
                 List.mapi
                   (fun j b -> if i = j then x :: b else b)
                   blocks)
               blocks)
        (partitions rest)

let specializations q =
  let vars = Term.sorted_elements (Cq.vars q) in
  if List.length vars > 10 then
    invalid_arg "Injective.specializations: too many variables";
  let answer_vars = Cq.answer_vars q in
  let subst_of_blocks blocks =
    List.fold_left
      (fun acc block ->
        (* Prefer an answer variable as representative so the answer tuple
           stays within answer variables. *)
        let rep =
          match List.filter (fun v -> Term.Set.mem v answer_vars) block with
          | r :: _ -> r
          | [] -> List.hd block
        in
        List.fold_left (fun acc v -> Subst.add v rep acc) acc block)
      Subst.empty blocks
  in
  let identity_first a b =
    Int.compare (List.length b) (List.length a)
    (* more blocks = fewer identifications; the identity has |vars| blocks *)
  in
  let dedup_body q =
    Cq.make ~answer:(Cq.answer q)
      (List.sort_uniq Atom.compare_structural (Cq.body q))
  in
  partitions vars
  |> List.sort identity_first
  |> List.map (fun blocks -> dedup_body (Cq.apply (subst_of_blocks blocks) q))

(* Everything [iso_cq] compares, computed once per query. *)
type prepared = {
  cq : Cq.t;
  inst : Instance.t;  (* the body, indexed *)
  preds : Symbol.Set.t;
}

let prepare q =
  let inst = Instance.of_list (Cq.body q) in
  { cq = q; inst; preds = Instance.signature inst }

(* The counts [iso_cq] requires to be equal. *)
let shape q =
  (Cq.size q, List.length (Cq.answer q), Term.Set.cardinal (Cq.vars q))

(* [iso_cq] on two queries of the same [shape]. The predicate-set test is
   implied by the hom below and only prunes. *)
let iso_prepared p p' =
  Instance.cardinal p.inst = Instance.cardinal p'.inst
  && Symbol.Set.subset p.preds p'.preds
  &&
  match Cq.align p.cq (Cq.answer p'.cq) with
  | None -> false
  | Some init -> Hom.exists ~inj:true ~init (Cq.body p.cq) p'.inst

let iso_cq q q' = shape q = shape q' && iso_prepared (prepare q) (prepare q')

(* Drops a specialization when [iso_cq] holds from it to a disjunct kept
   earlier, and keeps the rest in input order. Only the kept disjuncts of
   the candidate's own [shape] can qualify. *)
let of_ucq u =
  let buckets = Hashtbl.create 64 in
  let keep q =
    let key = shape q in
    let kept = Option.value (Hashtbl.find_opt buckets key) ~default:[] in
    let p = prepare q in
    if List.exists (iso_prepared p) kept then false
    else begin
      Hashtbl.replace buckets key (p :: kept);
      true
    end
  in
  Ucq.make (List.filter keep (List.concat_map specializations (Ucq.disjuncts u)))

let injective_rewriting ?max_rounds ?max_disjuncts ?budget rules q =
  let outcome = Rewrite.rewrite ?max_rounds ?max_disjuncts ?budget rules q in
  { outcome with ucq = of_ucq outcome.ucq }
