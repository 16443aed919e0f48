type t = { arity : int; disjuncts : Cq.t list }

let make = function
  | [] -> invalid_arg "Ucq.make: empty union"
  | q :: _ as disjuncts ->
      let arity = List.length (Cq.answer q) in
      List.iter
        (fun q' ->
          if List.length (Cq.answer q') <> arity then
            invalid_arg "Ucq.make: mismatched answer arities")
        disjuncts;
      { arity; disjuncts }

let of_cq q = make [ q ]
let disjuncts u = u.disjuncts
let arity u = u.arity
let size u = List.length u.disjuncts
let union a b =
  if a.arity <> b.arity then invalid_arg "Ucq.union: mismatched arities";
  { a with disjuncts = a.disjuncts @ b.disjuncts }

let holds ?tuple i u = List.exists (fun q -> Cq.holds ?tuple i q) u.disjuncts

let holds_inj ?tuple i u =
  List.exists (fun q -> Cq.holds_inj ?tuple i q) u.disjuncts

let witness ?tuple ~inj i u =
  List.find_map
    (fun q -> Option.map (fun h -> (q, h)) (Cq.find ?tuple ~inj i q))
    u.disjuncts

let cover u =
  (* Keep a disjunct only if no *other kept or later* disjunct strictly
     subsumes it; among equivalent disjuncts keep the first. *)
  let rec keep acc = function
    | [] -> List.rev acc
    | q :: rest ->
        let subsumed_by q' = Cq.subsumes q' q && not (Cq.compare q q' = 0) in
        if List.exists subsumed_by acc || List.exists subsumed_by rest then
          keep acc rest
        else keep (q :: acc) rest
  in
  let rec dedup acc = function
    | [] -> List.rev acc
    | q :: rest ->
        if List.exists (fun q' -> Cq.equivalent q q') acc then dedup acc rest
        else dedup (q :: acc) rest
  in
  { u with disjuncts = keep [] (dedup [] u.disjuncts) }

let mem_equiv q u = List.exists (fun q' -> Cq.equivalent q q') u.disjuncts

let equivalent a b =
  let covered x y =
    List.for_all
      (fun q -> List.exists (fun q' -> Cq.subsumes q' q) y.disjuncts)
      x.disjuncts
  in
  a.arity = b.arity && covered a b && covered b a

let pp ppf u =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(list ~sep:(any "@ ∨ ") Cq.pp)
    u.disjuncts
