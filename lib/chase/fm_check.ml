open Nca_logic

let violations inst rules =
  List.filter
    (fun tr ->
      let init =
        Subst.restrict (Rule.frontier tr.Trigger.rule) tr.Trigger.hom
      in
      not (Hom.exists ~init (Rule.head tr.Trigger.rule) inst))
    (Trigger.all rules inst)

let check ?forbid ~start ~rules m =
  if not (Instance.subset start m) then
    Error "the claimed model does not contain every start atom"
  else
    match violations m rules with
    | tr :: _ ->
        Error
          (Fmt.str "unsatisfied trigger: rule %s under %a"
             (Rule.name tr.Trigger.rule) Subst.pp tr.Trigger.hom)
    | [] -> (
        match forbid with
        | Some q when Cq.holds m q ->
            Error
              (Fmt.str "the claimed model satisfies the forbidden query %a"
                 Cq.pp q)
        | _ -> Ok ())
