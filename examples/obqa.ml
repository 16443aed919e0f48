(* Ontology-based query answering, the paper's motivating task (Sec. 1).

   A small "research lab" ontology over a legacy database. Conjunctive
   queries are answered two ways — forward by materializing a chase
   prefix, backward by UCQ rewriting evaluated on the database alone —
   and Proposition 4's equivalence is checked whenever the rewriting
   reaches its fixpoint. Rule r3 propagates lab membership along
   supervision chains, a transitivity flavor that makes some queries
   non-UCQ-rewritable: for those the rewriting budget runs out and the
   chase is the only method — exactly the bdd/non-bdd boundary the paper
   lives on. *)

open Nca_logic
module Answering = Nca_experiments.Answering
module Rewrite = Nca_rewriting.Rewrite

let ontology =
  Parser.parse_rules
    {|
      # every researcher works in some lab
      r1: Researcher(x) -> WorksIn(x, l), Lab(l).
      # lab members supervise someone junior
      r2: WorksIn(x, l), Senior(x) -> Supervises(x, y), Researcher(y).
      # supervision happens inside the supervisor's lab
      r3: Supervises(x, y), WorksIn(x, l) -> WorksIn(y, l).
      # supervisees are researchers
      r4: Supervises(x, y) -> Researcher(y).
    |}

let database =
  Parser.instance
    "Researcher(alice), Senior(alice), WorksIn(alice, biolab), \
     Lab(biolab), Researcher(bob), WorksIn(bob, biolab)"

let queries =
  [
    ("who is a researcher?", Parser.query "?(x) Researcher(x)");
    ("who works somewhere?", Parser.query "?(x) WorksIn(x, l)");
    ("labs with a senior member", Parser.query "?(l) WorksIn(x, l), Senior(x)");
    ("is anyone supervised?", Parser.query "? Supervises(x, y)");
  ]

let pp_tuple ppf tuple =
  if tuple = [] then Fmt.string ppf "yes"
  else Fmt.(list ~sep:comma Term.pp) ppf tuple

let () =
  Fmt.pr "ontology:@.%a@.@.database: %a@.@." Rule.pp_set ontology Instance.pp
    database;
  List.iter
    (fun (label, q) ->
      Fmt.pr "— %s  (%a)@." label Cq.pp q;
      let forward = Answering.answers_via_chase ~depth:5 ontology database q in
      Fmt.pr "  chase:     @[<h>%a@]@."
        Fmt.(list ~sep:(any "; ") pp_tuple)
        forward;
      (match Answering.answers_via_rewriting ontology database q with
      | Some backward ->
          Fmt.pr "  rewriting: @[<h>%a@]@."
            Fmt.(list ~sep:(any "; ") pp_tuple)
            backward;
          let agree = Answering.methods_agree ontology database q in
          Fmt.pr "  methods agree (Prop. 4): %b@." (agree = Some true);
          assert (agree = Some true)
      | None -> Fmt.pr "  rewriting: budget exhausted@.");
      let out = Rewrite.rewrite ontology q in
      Fmt.pr "  |rewriting| = %d disjuncts, fixpoint in %d rounds@.@."
        (Ucq.size out.ucq) out.rounds)
    queries
