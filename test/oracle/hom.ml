open Nca_logic

exception Found of Subst.t

(* The positions of [a] that are fixed under [sub]: constants are rigid,
   and a mappable term already bound by [sub] is fixed to its image. *)
let bound_positions a sub =
  let _, acc =
    List.fold_left
      (fun (i, acc) t ->
        let fixed =
          if Term.is_mappable t then Subst.find_opt t sub else Some t
        in
        match fixed with
        | Some u -> (i + 1, (i, u) :: acc)
        | None -> (i + 1, acc))
      (0, []) (Atom.args a)
  in
  acc

let candidate_count a sub i =
  let p = Atom.pred a in
  List.fold_left
    (fun best (pos, t) -> min best (Instance.pos_cardinal p pos t i))
    (Instance.pred_cardinal p i) (bound_positions a sub)

let candidates a sub i =
  let p = Atom.pred a in
  match bound_positions a sub with
  | [] -> Instance.with_pred p i
  | (pos0, t0) :: rest ->
      List.filter
        (fun b ->
          List.for_all
            (fun (pos, t) -> Term.equal (List.nth (Atom.args b) pos) t)
            rest)
        (Array.to_list (Instance.posting p pos0 t0 i))

(* State of the backtracking search: current bindings plus, for injective
   search, the set of target terms already used as images. *)
type state = { sub : Subst.t; used : Term.Set.t }

(* Try to extend [st] so that the source atom [a] matches the target atom
   [b]; both have the same predicate. *)
let match_atom ~inj st a b =
  let rec go st ss ts =
    match (ss, ts) with
    | [], [] -> Some st
    | s :: ss, t :: ts -> (
        if not (Term.is_mappable s) then
          if Term.equal s t then go st ss ts else None
        else
          match Subst.find_opt s st.sub with
          | Some u -> if Term.equal u t then go st ss ts else None
          | None ->
              if inj && Term.Set.mem t st.used then None
              else
                go
                  {
                    sub = Subst.add s t st.sub;
                    used = (if inj then Term.Set.add t st.used else st.used);
                  }
                  ss ts)
    | _ -> None
  in
  go st (Atom.args a) (Atom.args b)

(* Pick the remaining goal with the fewest candidate atoms under the
   current bindings — a fail-first heuristic driven by the positional
   index of the target, strictly sharper than counting bound positions:
   a goal whose bound positions select a small (or empty) indexed set is
   expanded before a goal ranging over a large relation. Each goal
   carries its own target instance, so delta-driven enumeration can pin
   different body atoms to different strata of the same instance. *)
(* Only ever called on a non-empty goal list ([solve] handles the empty
   conjunction — a valid query with exactly the identity match — before
   calling this), so no "empty" failure case exists at all. *)
let pick_ne st g rest =
  let score (a, tgt) = candidate_count a st.sub tgt in
  let rec go best best_score acc = function
    | [] -> (best, List.rev acc)
    | g :: rest ->
        if best_score = 0 then (best, List.rev_append acc (g :: rest))
        else
          let s = score g in
          if s < best_score then go g s (best :: acc) rest
          else go best best_score (g :: acc) rest
  in
  go g (score g) [] rest

let solve ~inj ~init goals f =
  let used = if inj then Subst.range init else Term.Set.empty in
  let rec go st = function
    | [] -> f st.sub
    | g :: gs ->
        let (a, tgt), rest = pick_ne st g gs in
        List.iter
          (fun b ->
            match match_atom ~inj st a b with
            | Some st' -> go st' rest
            | None -> ())
          (candidates a st.sub tgt)
  in
  go { sub = init; used } goals

let iter ?(inj = false) ?(init = Subst.empty) src tgt f =
  solve ~inj ~init (List.map (fun a -> (a, tgt)) src) f

let iter_targets ?(init = Subst.empty) goals f = solve ~inj:false ~init goals f

let find ?inj ?init src tgt =
  try
    iter ?inj ?init src tgt (fun s -> raise (Found s));
    None
  with Found s -> Some s

let exists ?inj ?init src tgt = Option.is_some (find ?inj ?init src tgt)

let all ?inj ?init src tgt =
  let acc = ref [] in
  iter ?inj ?init src tgt (fun s -> acc := s :: !acc);
  List.rev !acc

let count ?inj ?init src tgt =
  let n = ref 0 in
  iter ?inj ?init src tgt (fun _ -> incr n);
  !n

let isomorphic a b =
  Instance.cardinal a = Instance.cardinal b
  && exists ~inj:true (Instance.atoms a) b
