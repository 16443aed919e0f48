open Nca_logic

exception Not_datalog of Rule.t

type exhausted = {
  err : Nca_obs.Exhausted.t;
  partial : Instance.t;
  rounds : int;
}

let check_datalog rules =
  List.iter
    (fun r -> if not (Rule.is_datalog r) then raise (Not_datalog r))
    rules

(* Unify one body atom against a concrete delta atom, seeding the
   substitution for the search over the remaining atoms. *)
let seed_with atom fact =
  if not (Symbol.equal (Atom.pred atom) (Atom.pred fact)) then None
  else if List.compare_lengths (Atom.args atom) (Atom.args fact) <> 0 then
    (* unreachable for well-formed atoms (the arity is part of the
       predicate), but malformed input must not escape as a bare
       [Invalid_argument] from [fold_left2] *)
    None
  else
    List.fold_left2
      (fun acc s t ->
        match acc with
        | None -> None
        | Some sub ->
            if not (Term.is_mappable s) then
              if Term.equal s t then acc else None
            else begin
              match Subst.find_opt s sub with
              | Some u -> if Term.equal u t then acc else None
              | None -> Some (Subst.add s t sub)
            end)
      (Some Subst.empty) (Atom.args atom) (Atom.args fact)

(* In-round store of freshly derived atoms: hash-consed atoms hash and
   compare in O(1), so use them directly instead of polymorphic hashing. *)
module Atom_tbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal = Atom.equal
  let hash = Atom.hash
end)

let ev_round = Nca_obs.Events.label "datalog.round.boundary"
let ev_stop = Nca_obs.Events.label "budget.stop"

(* One semi-naive round: every homomorphism of a rule body into [total]
   that uses at least one [delta] atom, via the pivot stratification of
   [Trigger.delta_tasks] — body positions before the pivot range over
   [total ∖ delta], the pivot over [delta], the rest over [total] — so
   each join result is produced exactly once. Derivations accumulate in a
   mutable store; a persistent [Instance] is rebuilt only at the round
   boundary. *)
let round ?(round_no = 0) rules ~total ~delta =
  let fresh : unit Atom_tbl.t = Atom_tbl.create 64 in
  (* one flag read per round, not per derivation *)
  let tracking = Nca_provenance.Provenance.enabled () in
  List.iter
    (fun (rule, goals) ->
      let body = Rule.body rule in
      let head = Rule.head rule in
      Hom.iter_targets goals (fun h ->
          List.iter
            (fun head_atom ->
              let derived = Subst.apply_atom h head_atom in
              if
                (not (Instance.mem derived total))
                && not (Atom_tbl.mem fresh derived)
              then begin
                if tracking then
                  Nca_provenance.Provenance.record derived ~rule ~hom:h
                    ~round:round_no
                    ~parents:(Subst.apply_atoms h body);
                Atom_tbl.add fresh derived ()
              end)
            head))
    (Trigger.delta_tasks rules ~total ~delta);
  Atom_tbl.fold (fun a () acc -> Instance.add a acc) fresh Instance.empty

let saturate_steps ~budget start rules =
  check_datalog rules;
  let rec go total delta n =
    if Instance.is_empty delta then Ok (total, n)
    else
      let stop =
        match Nca_obs.Budget.interrupted budget with
        | Some _ as e -> e
        | None -> (
            match Nca_obs.Budget.rounds budget ~used:n with
            | Some _ as e -> e
            | None ->
                Nca_obs.Budget.atoms budget ~used:(Instance.cardinal total))
      in
      match stop with
      | Some err ->
          Nca_obs.Telemetry.instant ev_stop;
          Error { err; partial = total; rounds = n }
      | None ->
          Nca_obs.Telemetry.instant ev_round ~arg:n;
          let fresh =
            Nca_obs.Telemetry.span ~histo:"datalog.round_us" "datalog.round"
              (fun () -> round ~round_no:(n + 1) rules ~total ~delta)
          in
          Nca_obs.Telemetry.count "datalog.atoms" (Instance.cardinal fresh);
          go (Instance.union total fresh) fresh (n + 1)
  in
  Nca_obs.Telemetry.span "datalog.saturate" @@ fun () ->
  let result = go start start 0 in
  (match result with
  | Ok (_, n) -> Nca_obs.Telemetry.count "datalog.rounds" n
  | Error { rounds; _ } -> Nca_obs.Telemetry.count "datalog.rounds" rounds);
  result

let saturate ?max_rounds ?max_atoms ?(budget = Nca_obs.Budget.unlimited)
    start rules =
  (* Datalog closures are finite, so the structural defaults are generous
     safety valves rather than exploration bounds. *)
  let budget =
    Nca_obs.Budget.intersect budget
      (Nca_obs.Budget.v
         ~max_rounds:(Option.value ~default:10000 max_rounds)
         ~max_atoms:(Option.value ~default:1_000_000 max_atoms)
         ())
  in
  Result.map fst (saturate_steps ~budget start rules)

let closure start rules =
  match saturate_steps ~budget:Nca_obs.Budget.unlimited start rules with
  | Ok (total, _) -> total
  | Error _ -> assert false (* no bound to exhaust *)

let rounds_to_fixpoint start rules =
  match saturate_steps ~budget:Nca_obs.Budget.unlimited start rules with
  (* the final round derives nothing new *)
  | Ok (_, n) -> max 0 (n - 1)
  | Error _ -> assert false
