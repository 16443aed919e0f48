module Telemetry = Nca_obs.Telemetry

(* ------------------------------------------------------------------ *)
(* Leapfrog intersection of id-sorted atom arrays *)

(* Smallest [j >= lo] with [Atom.id arr.(j) >= key], by galloping: double
   the step while still below, then binary-search the bracketed range. *)
let seek (arr : Atom.t array) lo key =
  let n = Array.length arr in
  if lo >= n || Atom.id arr.(lo) >= key then lo
  else begin
    let rec probe prev step =
      let j = lo + step in
      if j < n && Atom.id arr.(j) < key then probe j (step * 2)
      else (prev, min j n)
    in
    let l, r = probe lo 1 in
    let l = ref l and r = ref r in
    (* arr.(!l) < key; !r = n or arr.(!r) >= key *)
    while !r - !l > 1 do
      let m = (!l + !r) / 2 in
      if Atom.id arr.(m) < key then l := m else r := m
    done;
    !r
  end

exception Empty

(* Emit, in ascending id order, every atom present in all of [arrs]
   (each sorted by ascending id). [k >= 2]. *)
let leapfrog (arrs : Atom.t array array) emit =
  let k = Array.length arrs in
  let idx = Array.make k 0 in
  try
    Array.iter (fun a -> if Array.length a = 0 then raise Empty) arrs;
    let key = ref (Atom.id arrs.(0).(0)) in
    let agree = ref 1 in
    let i = ref 1 in
    while true do
      let ii = !i mod k in
      let a = arrs.(ii) in
      let j = seek a idx.(ii) !key in
      if j >= Array.length a then raise Empty;
      idx.(ii) <- j;
      let id = Atom.id a.(j) in
      if id = !key then begin
        incr agree;
        if !agree = k then begin
          emit a.(j);
          if j + 1 >= Array.length a then raise Empty;
          idx.(ii) <- j + 1;
          key := Atom.id a.(j + 1);
          agree := 1
        end
      end
      else begin
        key := id;
        agree := 1
      end;
      incr i
    done
  with Empty -> ()

(* ------------------------------------------------------------------ *)
(* The register machine *)

let flush ~probes ~inters ~matched =
  if Telemetry.enabled () then begin
    Telemetry.incr "plan.exec";
    Telemetry.count "plan.probes" probes;
    Telemetry.count "plan.intersections" inters;
    Telemetry.count "plan.matches" matched;
    (* per-execution probe fan-out distribution, not just the total *)
    Telemetry.observe "plan.probe_fanout" probes
  end

(* One search in flight. The substitution under construction is
   maintained incrementally — one [Subst.add] per bind, shared across
   every match below it, and handing it to [f] costs nothing. The trail
   records, per bind, the slot and the map as it was, so backtracking is
   a pointer restore. *)
type machine = {
  plan : Plan.t;
  targets : Instance.t array;  (* per goal, or one shared by all goals *)
  inj : bool;
  init_images : Term.t list;  (* injective mode only *)
  vals : Term.t array;
  set : bool array;
  sched : Plan.schedule;
  trail : int array;
  strail : Subst.t array;
  mutable tn : int;
  mutable cur : Subst.t;
  f : Subst.t -> unit;
  mutable probes : int;  (* candidate atoms reaching the matcher *)
  mutable inters : int;  (* k-way (k >= 2) leapfrog intersections *)
  mutable matched : int;  (* full matches reported *)
}

(* [v] is already the image of some term: injective search refuses it.
   The images in use are the bound slots' and the initial binding's. *)
let used m v =
  let rec scan k =
    k < Array.length m.vals
    && ((m.set.(k) && Term.equal m.vals.(k) v) || scan (k + 1))
  in
  scan 0 || List.exists (Term.equal v) m.init_images

let bind m k v =
  m.vals.(k) <- v;
  m.set.(k) <- true;
  m.trail.(m.tn) <- k;
  m.strail.(m.tn) <- m.cur;
  m.cur <- Subst.add m.plan.slot_terms.(k) v m.cur;
  m.tn <- m.tn + 1

let undo m mark =
  if m.tn > mark then begin
    while m.tn > mark do
      m.tn <- m.tn - 1;
      m.set.(m.trail.(m.tn)) <- false
    done;
    m.cur <- m.strail.(mark)
  end

let target targets g = targets.(if Array.length targets = 1 then 0 else g)

(* Check/bind the argument positions of a candidate left to right;
   positions that fed the posting intersection are already known to
   agree and are skipped. *)
let rec match_args m ga fixed i = function
  | [] -> true
  | bt :: rest ->
      (fixed.(i)
      ||
      match ga.(i) with
      | Plan.Const t -> Term.equal t bt
      | Plan.Slot k ->
          if m.set.(k) then Term.equal m.vals.(k) bt
          else if m.inj && used m bt then false
          else begin
            bind m k bt;
            true
          end)
      && match_args m ga fixed (i + 1) rest

let rec try_atom m d b =
  m.probes <- m.probes + 1;
  let mark = m.tn in
  let g = m.sched.order.(d) in
  if match_args m m.plan.args.(g) m.sched.fixed.(d) 0 (Atom.args b) then
    if d + 1 = Array.length m.sched.order then begin
      m.matched <- m.matched + 1;
      m.f m.cur
    end
    else step m (d + 1);
  undo m mark

and step m d =
  let g = m.sched.order.(d) in
  let p = m.plan.preds.(g) in
  let tgt = target m.targets g in
  let ga = m.plan.args.(g) in
  let fixed_term i =
    match ga.(i) with Plan.Const t -> t | Plan.Slot k -> m.vals.(k)
  in
  let pos = m.sched.probe.(d) in
  match Array.length pos with
  | 0 | 1 ->
      let arr =
        if Array.length pos = 0 then Instance.pred_array p tgt
        else Instance.posting p pos.(0) (fixed_term pos.(0)) tgt
      in
      for j = 0 to Array.length arr - 1 do
        try_atom m d arr.(j)
      done
  | _ ->
      m.inters <- m.inters + 1;
      leapfrog
        (Array.map (fun i -> Instance.posting p i (fixed_term i) tgt) pos)
        (try_atom m d)

(* Root scoring: the smallest posting over the goal's fixed positions,
   defaulting to the predicate cardinal. *)
let score (plan : Plan.t) targets vals set g =
  let tgt = target targets g in
  let p = plan.preds.(g) in
  let ga = plan.args.(g) in
  let best = ref (Instance.pred_cardinal p tgt) in
  for i = 0 to Array.length ga - 1 do
    match ga.(i) with
    | Plan.Const t -> best := min !best (Instance.pos_cardinal p i t tgt)
    | Plan.Slot k ->
        if set.(k) then
          best := min !best (Instance.pos_cardinal p i vals.(k) tgt)
  done;
  !best

(* Run [plan] against per-goal [targets], extending [init], calling [f] on
   every full match. The root goal is the first strict minimum of [score]
   in body order, with an early exit at 0 — a zero-candidate root ends the
   call before any search state is allocated. Candidates are enumerated
   in ascending atom-id order, and argument positions are checked/bound
   left to right. *)
let run ~inj ~init (plan : Plan.t) targets f =
  let n = Array.length plan.body in
  if n = 0 then f init
  else begin
    let ns = Array.length plan.slot_terms in
    let vals = Array.copy plan.slot_terms in
    let set = Array.make ns false in
    for k = 0 to ns - 1 do
      match Subst.find_opt plan.slot_terms.(k) init with
      | Some v ->
          vals.(k) <- v;
          set.(k) <- true
      | None -> ()
    done;
    (* single-goal bodies have one variant and nothing to score *)
    let root = ref 0 and best = ref 1 in
    if n > 1 then begin
      best := score plan targets vals set 0;
      let g = ref 1 in
      while !best > 0 && !g < n do
        let s = score plan targets vals set !g in
        if s < !best then begin
          root := !g;
          best := s
        end;
        incr g
      done
    end;
    if !best = 0 then flush ~probes:0 ~inters:0 ~matched:0
    else begin
      let m =
        {
          plan;
          targets;
          inj;
          init_images =
            (if inj then List.map snd (Subst.bindings init) else []);
          vals;
          set;
          sched = Plan.schedule plan !root set;
          trail = Array.make ns 0;
          strail = Array.make ns init;
          tn = 0;
          cur = init;
          f;
          probes = 0;
          inters = 0;
          matched = 0;
        }
      in
      Fun.protect
        ~finally:(fun () ->
          flush ~probes:m.probes ~inters:m.inters ~matched:m.matched)
        (fun () -> step m 0)
    end
  end

(* ------------------------------------------------------------------ *)
(* The search API *)

let iter ?(inj = false) ?(init = Subst.empty) src tgt f =
  run ~inj ~init (Cache.find_or_compile ~stats:tgt src) [| tgt |] f

let iter_targets ?(init = Subst.empty) goals f =
  match goals with
  | [] -> f init
  | (_, tgt0) :: _ ->
      let plan = Cache.find_or_compile ~stats:tgt0 (List.map fst goals) in
      run ~inj:false ~init plan (Array.of_list (List.map snd goals)) f

exception Found of Subst.t

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
  let m = ref 0 in
  iter ?inj ?init src tgt (fun _ -> incr m);
  !m

let isomorphic a b =
  Instance.cardinal a = Instance.cardinal b
  && exists ~inj:true (Instance.atoms a) b
