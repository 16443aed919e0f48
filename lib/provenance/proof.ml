open Nca_logic

type t = {
  fact : Atom.t;
  rule : Rule.t option;
  hom : Subst.t;
  round : int;
  premises : t list;
}

module Atom_tbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal = Atom.equal
  let hash = Atom.hash
end)

let of_fact fact =
  let memo : t Atom_tbl.t = Atom_tbl.create 64 in
  (* the recorded graph is acyclic (parents precede their fact), so the
     recursion terminates; memoizing keeps the result a shared DAG *)
  let rec go fact =
    match Atom_tbl.find_opt memo fact with
    | Some node -> node
    | None ->
        let node =
          match Provenance.find fact with
          | None ->
              { fact; rule = None; hom = Subst.empty; round = 0; premises = [] }
          | Some e ->
              {
                fact;
                rule = Some e.Provenance.rule;
                hom = e.Provenance.hom;
                round = e.Provenance.round;
                premises = List.map go e.Provenance.parents;
              }
        in
        Atom_tbl.add memo fact node;
        node
  in
  go fact

(* Each traversal below visits every distinct fact once, so shared
   sub-DAGs do not blow up the walk. *)
let fold_distinct f init root =
  let seen = Atom_tbl.create 64 in
  let rec go acc node =
    if Atom_tbl.mem seen node.fact then acc
    else begin
      Atom_tbl.add seen node.fact ();
      let acc = List.fold_left go acc node.premises in
      f acc node
    end
  in
  go init root

let depth root =
  let memo = Atom_tbl.create 64 in
  let rec go node =
    match Atom_tbl.find_opt memo node.fact with
    | Some d -> d
    | None ->
        let d =
          match node.rule with
          | None -> 0
          | Some _ ->
              1 + List.fold_left (fun m p -> max m (go p)) 0 node.premises
        in
        Atom_tbl.add memo node.fact d;
        d
  in
  go root

let size root = fold_distinct (fun n _ -> n + 1) 0 root

let rules_used root =
  fold_distinct
    (fun acc node ->
      match node.rule with
      | Some r when not (List.exists (Rule.equal r) acc) -> r :: acc
      | _ -> acc)
    [] root
  |> List.rev

let facts root =
  List.rev (fold_distinct (fun acc node -> node.fact :: acc) [] root)

type error = { fact : Atom.t; reason : string }

let pp_error ppf e =
  Fmt.pf ppf "proof step for %a rejected: %s" Atom.pp e.fact e.reason

let error fact reason = Error { fact; reason }

(* Set-equality of the instantiated body and the premises' facts: the
   body image may repeat an atom (two body positions mapped onto the same
   fact), so compare as sets of hash-consed atoms. *)
let same_atom_set xs ys =
  let covers xs ys =
    List.for_all (fun a -> List.exists (Atom.equal a) ys) xs
  in
  covers xs ys && covers ys xs

let check ~rules ~input (root : t) =
  let seen = Atom_tbl.create 64 in
  let rec go (node : t) =
    if Atom_tbl.mem seen node.fact then Ok ()
    else begin
      Atom_tbl.add seen node.fact ();
      match node.rule with
      | None ->
          if Instance.mem node.fact input then Ok ()
          else error node.fact "leaf fact is not in the input instance"
      | Some r ->
          if not (List.exists (Rule.equal r) rules) then
            error node.fact
              (Fmt.str "rule %s is not in the rule set" (Rule.name r))
          else
            let body_image = Subst.apply_atoms node.hom (Rule.body r) in
            let premise_facts =
              List.map (fun (p : t) -> p.fact) node.premises
            in
            if not (same_atom_set body_image premise_facts) then
              error node.fact
                (Fmt.str "body image %a is not the premises %a" Atom.pp_list
                   body_image Atom.pp_list premise_facts)
            else if
              not
                (List.exists (Atom.equal node.fact)
                   (Subst.apply_atoms node.hom (Rule.head r)))
            then error node.fact "fact is not in the instantiated head"
            else
              List.fold_left
                (fun acc p -> match acc with Error _ -> acc | Ok () -> go p)
                (Ok ()) node.premises
    end
  in
  go root

let pp ~rules ppf (root : t) =
  let seen = Atom_tbl.create 64 in
  let rec go ppf (node : t) =
    match node.rule with
    | None -> Fmt.pf ppf "%a (input)" Atom.pp node.fact
    | Some r ->
        if Atom_tbl.mem seen node.fact then
          Fmt.pf ppf "%a … (shown above)" Atom.pp node.fact
        else begin
          Atom_tbl.add seen node.fact ();
          Fmt.pf ppf "@[<v 2>%a by %s at round %d%a@]" Atom.pp node.fact
            (Rule.label rules r) node.round
            (fun ppf premises ->
              List.iter (fun p -> Fmt.pf ppf "@,%a" go p) premises)
            node.premises
        end
  in
  go ppf root

let to_dot ?(name = "proof") (root : t) =
  let label a = Fmt.str "%a" Atom.pp a in
  let nodes =
    List.rev
      (fold_distinct
         (fun acc (node : t) ->
           ( label node.fact,
             label node.fact,
             match node.rule with None -> `Input | Some _ -> `Derived )
           :: acc)
         [] root)
  in
  let edges =
    List.rev
      (fold_distinct
         (fun acc (node : t) ->
           match node.rule with
           | None -> acc
           | Some r ->
               List.fold_left
                 (fun acc (p : t) ->
                   let e =
                     (label p.fact, label node.fact, Some (Rule.name r))
                   in
                   (* a repeated body atom maps onto one premise fact:
                      draw that edge once *)
                   if List.mem e acc then acc else e :: acc)
                 acc node.premises)
         [] root)
  in
  Nca_graph.Dot.of_dag ~name ~nodes ~edges ()
