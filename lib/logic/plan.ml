type arg = Const of Term.t | Slot of int

type schedule = {
  order : int array;
  fixed : bool array array;
  probe : int array array;
}

type t = {
  body : Atom.t array;
  preds : Symbol.t array;
  args : arg array array;
  slot_terms : Term.t array;
  cards : int array;
  schedules : (bool array * schedule) list array;
}

let nslots p = Array.length p.slot_terms

let compile ?stats body =
  let body = Array.of_list body in
  let preds = Array.map Atom.pred body in
  let slot_tbl = Hashtbl.create 8 in
  let rev_slots = ref [] in
  let count = ref 0 in
  let slot_of t =
    match Hashtbl.find_opt slot_tbl (Term.code t) with
    | Some k -> k
    | None ->
        let k = !count in
        incr count;
        Hashtbl.add slot_tbl (Term.code t) k;
        rev_slots := t :: !rev_slots;
        k
  in
  let args =
    Array.map
      (fun a ->
        Array.of_list
          (List.map
             (fun u -> if Term.is_mappable u then Slot (slot_of u) else Const u)
             (Atom.args a)))
      body
  in
  let cards =
    match stats with
    | None -> Array.make (Array.length body) 0
    | Some i -> Array.map (fun p -> Instance.pred_cardinal p i) preds
  in
  {
    body;
    preds;
    args;
    slot_terms = Array.of_list (List.rev !rev_slots);
    cards;
    schedules = Array.make (Array.length body) [];
  }

(* Number of positions of goal [g] that are fixed once the slots in
   [bound] are: constants are always fixed, a slot position iff bound. *)
let bound_count args bound g =
  Array.fold_left
    (fun n a ->
      match a with
      | Const _ -> n + 1
      | Slot k -> if bound.(k) then n + 1 else n)
    0 args.(g)

let variant plan r =
  let n = Array.length plan.body in
  let args = plan.args in
  let bound = Array.make (nslots plan) false in
  let taken = Array.make n false in
  let mark g =
    Array.iter (function Slot k -> bound.(k) <- true | Const _ -> ()) args.(g)
  in
  let order = Array.make n r in
  taken.(r) <- true;
  mark r;
  for d = 1 to n - 1 do
    (* greedy: most bound positions, then smaller relation, then first
       in the body — ascending scan with strict comparisons keeps the
       earliest goal on ties, so the order is deterministic. *)
    let bestg = ref (-1) and bestb = ref (-1) and bestc = ref max_int in
    for g = 0 to n - 1 do
      if not taken.(g) then begin
        let b = bound_count args bound g in
        let c = plan.cards.(g) in
        if b > !bestb || (b = !bestb && c < !bestc) then begin
          bestg := g;
          bestb := b;
          bestc := c
        end
      end
    done;
    order.(d) <- !bestg;
    taken.(!bestg) <- true;
    mark !bestg
  done;
  order

(* Which positions of each step's goal are fixed when the step starts
   (Const, bound on entry, or bound by an earlier step of the variant) is a
   function of the root and the entry-bound slots alone. *)
let make_schedule plan root bound =
  let bound = Array.copy bound in
  let order = variant plan root in
  let fixed =
    Array.map
      (fun g ->
        let ga = plan.args.(g) in
        let m = Array.map (function Const _ -> true | Slot k -> bound.(k)) ga in
        Array.iter (function Slot k -> bound.(k) <- true | Const _ -> ()) ga;
        m)
      order
  in
  let positions m =
    List.init (Array.length m) Fun.id
    |> List.filter (fun i -> m.(i))
    |> Array.of_list
  in
  { order; fixed; probe = Array.map positions fixed }

(* Memoised per root and set of entry-bound slots. *)
let schedule plan root bound =
  match List.assoc_opt bound plan.schedules.(root) with
  | Some s -> s
  | None ->
      let s = make_schedule plan root bound in
      plan.schedules.(root) <- (Array.copy bound, s) :: plan.schedules.(root);
      s

(* ------------------------------------------------------------------ *)
(* Pretty-printing *)

let pp_step ppf plan bound g =
  let actions = ref [] in
  let local = Hashtbl.create 4 in
  Array.iteri
    (fun i a ->
      let act =
        match a with
        | Const u -> Fmt.str "const %a@@%d" Term.pp u i
        | Slot k ->
            if bound.(k) then Fmt.str "probe %a@@%d" Term.pp plan.slot_terms.(k) i
            else if Hashtbl.mem local k then
              Fmt.str "check %a@@%d" Term.pp plan.slot_terms.(k) i
            else begin
              Hashtbl.add local k ();
              Fmt.str "bind %a@@%d" Term.pp plan.slot_terms.(k) i
            end
      in
      actions := act :: !actions)
    plan.args.(g);
  let scan =
    Array.for_all
      (function Const _ -> false | Slot k -> not bound.(k))
      plan.args.(g)
  in
  Fmt.pf ppf "%a via %s%s" Atom.pp plan.body.(g)
    (if scan then Fmt.str "scan %s; " (Symbol.name plan.preds.(g)) else "")
    (String.concat "; " (List.rev !actions))

let pp ppf plan =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "plan: @[<h>%a@]@," Fmt.(array ~sep:comma Atom.pp) plan.body;
  Fmt.pf ppf "  slots:";
  Array.iteri
    (fun k u -> Fmt.pf ppf " %d=%a" k Term.pp u)
    plan.slot_terms;
  Fmt.pf ppf "@,";
  Array.iteri
    (fun r order ->
      Fmt.pf ppf "  variant %d: root %a@," r Atom.pp plan.body.(r);
      let bound = Array.make (Array.length plan.slot_terms) false in
      Array.iteri
        (fun d g ->
          Fmt.pf ppf "    step %d: " d;
          pp_step ppf plan bound g;
          Fmt.pf ppf "@,";
          Array.iter
            (function Slot k -> bound.(k) <- true | Const _ -> ())
            plan.args.(g))
        order)
    (Array.init (Array.length plan.body) (variant plan));
  Fmt.pf ppf "@]"

let shared_slots plan i j =
  let slots_of g =
    Array.to_list plan.args.(g)
    |> List.filter_map (function Slot k -> Some k | Const _ -> None)
    |> List.sort_uniq Int.compare
  in
  let sj = slots_of j in
  List.filter (fun k -> List.mem k sj) (slots_of i)

let pp_dot ppf plan =
  Fmt.pf ppf "digraph plan {@.";
  Fmt.pf ppf "  rankdir=LR;@.";
  Fmt.pf ppf "  node [shape=box,fontname=\"monospace\"];@.";
  Array.iteri
    (fun g a ->
      Fmt.pf ppf "  g%d [label=\"%d: %a\"%s];@." g g Atom.pp a
        (if g = 0 then ",style=bold" else ""))
    plan.body;
  let n = Array.length plan.body in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match shared_slots plan i j with
      | [] -> ()
      | ks ->
          Fmt.pf ppf "  g%d -> g%d [label=\"%s\",dir=none];@." i j
            (String.concat ","
               (List.map
                  (fun k -> Fmt.str "%a" Term.pp plan.slot_terms.(k))
                  ks))
    done
  done;
  Fmt.pf ppf "}@."
