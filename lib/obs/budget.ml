type t = {
  deadline : float option;
  timeout_ms : int;
  max_depth : int option;
  max_rounds : int option;
  max_atoms : int option;
  max_steps : int option;
  max_disjuncts : int option;
  cancel : (unit -> bool) option;
}

let unlimited =
  {
    deadline = None;
    timeout_ms = 0;
    max_depth = None;
    max_rounds = None;
    max_atoms = None;
    max_steps = None;
    max_disjuncts = None;
    cancel = None;
  }

let v ?timeout_s ?max_depth ?max_rounds ?max_atoms ?max_steps ?max_disjuncts
    ?cancel () =
  let deadline, timeout_ms =
    match timeout_s with
    | None -> (None, 0)
    | Some s -> (Some (Unix.gettimeofday () +. s), int_of_float (s *. 1000.))
  in
  {
    deadline;
    timeout_ms;
    max_depth;
    max_rounds;
    max_atoms;
    max_steps;
    max_disjuncts;
    cancel;
  }

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let intersect a b =
  let deadline, timeout_ms =
    match (a.deadline, b.deadline) with
    | None, None -> (None, 0)
    | Some d, None -> (Some d, a.timeout_ms)
    | None, Some d -> (Some d, b.timeout_ms)
    | Some da, Some db ->
        if da <= db then (Some da, a.timeout_ms) else (Some db, b.timeout_ms)
  in
  {
    deadline;
    timeout_ms;
    max_depth = min_opt a.max_depth b.max_depth;
    max_rounds = min_opt a.max_rounds b.max_rounds;
    max_atoms = min_opt a.max_atoms b.max_atoms;
    max_steps = min_opt a.max_steps b.max_steps;
    max_disjuncts = min_opt a.max_disjuncts b.max_disjuncts;
    cancel =
      (match (a.cancel, b.cancel) with
      | None, x | x, None -> x
      | Some f, Some g -> Some (fun () -> f () || g ()));
  }

let is_unlimited b =
  b.deadline = None && b.max_depth = None && b.max_rounds = None
  && b.max_atoms = None && b.max_steps = None && b.max_disjuncts = None
  && Option.is_none b.cancel

let interrupted b =
  match b.cancel with
  | Some f when f () -> Some Exhausted.cancelled
  | _ -> (
      match b.deadline with
      | Some d when Unix.gettimeofday () >= d ->
          Some
            { Exhausted.resource = Wall_clock; limit = b.timeout_ms; used = 0 }
      | _ -> None)

let over resource limit used = Some { Exhausted.resource; limit; used }

(* The comparison direction of each helper matches the seed engine it
   replaces, so budgeted runs stop at exactly the same point as the old
   ad-hoc checks (byte-identical prefixes). *)

let depth b ~used =
  match b.max_depth with
  | Some l when used >= l -> over Depth l used
  | _ -> None

let rounds b ~used =
  match b.max_rounds with
  | Some l when used > l -> over Rounds l used
  | _ -> None

let rounds_reached b ~used =
  match b.max_rounds with
  | Some l when used >= l -> over Rounds l used
  | _ -> None

let atoms b ~used =
  match b.max_atoms with
  | Some l when used > l -> over Atoms l used
  | _ -> None

let steps b ~used =
  match b.max_steps with
  | Some l when used > l -> over Steps l used
  | _ -> None

let disjuncts b ~used =
  match b.max_disjuncts with
  | Some l when used > l -> over Disjuncts l used
  | _ -> None
