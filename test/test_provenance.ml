(* Fact-level provenance, proof DAGs and certificates.

   Three families of guarantees:
   - neutrality: with recording disabled every entry point is a no-op,
     and a provenance-on run computes exactly the instance of a
     provenance-off run (the CLI byte-identity golden is the
     end-to-end version of this);
   - soundness: every derivation the store records replays through the
     independent checker — [Proof.check] accepts every recorded proof,
     [Certificate.check] every certificate built from a recorded run —
     across both engines and the whole zoo;
   - rejection: a hand-corrupted proof or certificate is refused with a
     typed error naming the offending step. *)

open Nca_logic
module Chase = Nca_chase.Chase
module Datalog = Nca_chase.Datalog
module Derivation = Nca_chase.Derivation
module Provenance = Nca_provenance.Provenance
module Proof = Nca_provenance.Proof
module Rulesets = Nca_core.Rulesets
module Theorem1 = Nca_core.Theorem1
module Witness = Nca_core.Witness
module Certificate = Nca_core.Certificate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let example1 = Rulesets.example1

let with_provenance f =
  Provenance.enable ();
  Fun.protect ~finally:Provenance.disable f

let tracked_facts () = List.rev (Provenance.fold (fun a _ acc -> a :: acc) [])

let check_all_proofs ~rules ~input =
  List.iter
    (fun a ->
      match Proof.check ~rules ~input (Proof.of_fact a) with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "recorded proof rejected: %a" Proof.pp_error e)
    (tracked_facts ())

(* ------------------------------------------------------------------ *)
(* Term-level derivations (the --explain-nulls trace) *)

let test_derivation_depth_rules () =
  let c = Chase.run ~max_depth:3 example1.instance example1.rules in
  let deepest =
    List.fold_left
      (fun best t ->
        let ts x = Option.value ~default:0 (Chase.timestamp c x) in
        match best with
        | Some b when ts b >= ts t -> best
        | _ -> Some t)
      None
      (Term.Set.elements (Chase.invented c))
  in
  match deepest with
  | None -> Alcotest.fail "example1 invents terms"
  | Some t ->
      let d = Derivation.of_term c t in
      check_int "depth = creation level"
        (Option.value ~default:0 (Chase.timestamp c t))
        (Derivation.depth d);
      check "succ creates every null" true
        (List.mem "succ" (List.map Rule.name (Derivation.rules_used d)));
      (* deduplicated: each rule appears once *)
      let rs = Derivation.rules_used d in
      check_int "rules_used deduplicates" (List.length rs)
        (List.length (List.sort_uniq Rule.compare rs))

let test_derivation_database_term () =
  let c = Chase.run ~max_depth:2 example1.instance example1.rules in
  let d = Derivation.of_term c (Term.cst "a") in
  check_int "database terms have depth 0" 0 (Derivation.depth d);
  check "and no rules" true (Derivation.rules_used d = [])

(* Two rules sharing a label (lint NCA019) are still two rules: both
   count in rules_used, and the printed trees tell them apart by their
   1-based position in the rule set. *)
let labels rules used = List.map (Rule.label rules) used

let test_shared_label_proofs () =
  let p = Parser.parse_program "A(a). r: A(x) -> B(x). r: A(x) -> C(x)." in
  with_provenance @@ fun () ->
  ignore (Chase.run ~max_depth:2 p.facts p.rules);
  let shown pred =
    Fmt.str "%a" (Proof.pp ~rules:p.rules)
      (Proof.of_fact (Atom.app pred [ Term.cst "a" ]))
  in
  Alcotest.(check string) "first rule" "B(a) by r#1 at round 1\n  A(a) (input)"
    (shown "B");
  Alcotest.(check string) "second rule" "C(a) by r#2 at round 1\n  A(a) (input)"
    (shown "C")

let test_shared_label_rules_used () =
  let p = Parser.parse_program "A(a). r: A(x) -> B(x). r: B(x) -> C(x)." in
  with_provenance @@ fun () ->
  ignore (Chase.run ~max_depth:2 p.facts p.rules);
  let proof = Proof.of_fact (Atom.app "C" [ Term.cst "a" ]) in
  Alcotest.(check (list string)) "proof uses both rules" [ "r#1"; "r#2" ]
    (labels p.rules (Proof.rules_used proof));
  let q = Parser.parse_program "A(a). r: A(x) -> E(x,y). r: E(x,y) -> F(y,z)." in
  let c = Chase.run ~max_depth:2 q.facts q.rules in
  match
    List.find_opt
      (fun t -> Chase.timestamp c t = Some 2)
      (Term.Set.elements (Chase.invented c))
  with
  | None -> Alcotest.fail "expected a level-2 null"
  | Some t ->
      let d = Derivation.of_term c t in
      Alcotest.(check (list string)) "derivation uses both rules"
        [ "r#2"; "r#1" ]
        (labels q.rules (Derivation.rules_used d));
      (* null names depend on the run order, so compare the step labels *)
      let step_label line =
        match String.split_on_char ' ' (String.trim line) with
        | _ :: "by" :: label :: _ -> label
        | _ -> line
      in
      Alcotest.(check (list string)) "derivation tree" [ "r#2"; "r#1" ]
        (List.map step_label
           (String.split_on_char '\n'
              (Fmt.str "%a" (Derivation.pp ~rules:q.rules) d)))

(* ------------------------------------------------------------------ *)
(* Store discipline *)

let test_disabled_is_noop () =
  check "disabled" false (Provenance.enabled ());
  Provenance.record (Atom.app "P" [ Term.cst "a" ])
    ~rule:(List.hd example1.rules) ~hom:Subst.empty ~round:1 ~parents:[];
  check "nothing recorded" true
    (Provenance.find (Atom.app "P" [ Term.cst "a" ]) = None);
  check_int "no facts" 0 (Provenance.facts_tracked ());
  let s = Provenance.stats () in
  check "stats all zero" true
    (s.Provenance.facts = 0
    && s.Provenance.store_bytes = 0
    && s.Provenance.max_depth = 0)

let test_first_writer_wins () =
  with_provenance @@ fun () ->
  let a = Atom.app "P" [ Term.cst "a" ] in
  let r1 = List.hd example1.rules in
  let r2 = List.nth example1.rules 1 in
  Provenance.record a ~rule:r1 ~hom:Subst.empty ~round:1 ~parents:[];
  Provenance.record a ~rule:r2 ~hom:Subst.empty ~round:2 ~parents:[];
  match Provenance.find a with
  | Some e ->
      check "first derivation kept" true (Rule.equal e.Provenance.rule r1);
      check_int "first round kept" 1 e.Provenance.round
  | None -> Alcotest.fail "fact not recorded"

let test_enable_resets () =
  Provenance.enable ();
  Provenance.record (Atom.app "P" [ Term.cst "a" ])
    ~rule:(List.hd example1.rules) ~hom:Subst.empty ~round:1 ~parents:[];
  Provenance.enable ();
  check_int "enable installs a fresh store" 0 (Provenance.facts_tracked ());
  Provenance.disable ()

(* ------------------------------------------------------------------ *)
(* Neutrality: recording does not change what the engines compute *)

let test_chase_unchanged_by_recording () =
  let off = Chase.run ~max_depth:4 example1.instance example1.rules in
  let on =
    with_provenance @@ fun () ->
    Chase.run ~max_depth:4 example1.instance example1.rules
  in
  (* fresh nulls are globally numbered, so compare up to renaming *)
  check "same instance" true
    (Hom.isomorphic off.Chase.instance on.Chase.instance);
  check_int "same depth" off.Chase.depth on.Chase.depth

let test_datalog_unchanged_by_recording () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let i = Parser.instance "E(a,b), E(b,c), E(c,d)" in
  let off = Datalog.closure i rules in
  let on = with_provenance @@ fun () -> Datalog.closure i rules in
  check "same closure" true (Instance.equal off on)

(* ------------------------------------------------------------------ *)
(* Soundness: every recorded derivation replays *)

let test_chase_proofs_check () =
  with_provenance @@ fun () ->
  let c = Chase.run ~max_depth:4 example1.instance example1.rules in
  check "store populated" true (Provenance.facts_tracked () > 0);
  check_all_proofs ~rules:example1.rules ~input:example1.instance;
  (* every tracked fact is a chase fact, with a positive round *)
  List.iter
    (fun a ->
      check "tracked fact in chase" true (Instance.mem a c.Chase.instance);
      match Provenance.find a with
      | Some e -> check "round positive" true (e.Provenance.round > 0)
      | None -> Alcotest.fail "find after fold")
    (tracked_facts ())

let test_datalog_proofs_check () =
  with_provenance @@ fun () ->
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let i = Parser.instance "E(a,b), E(b,c), E(c,d), E(d,e)" in
  ignore (Datalog.closure i rules);
  check "pure-Datalog runs are tracked too" true
    (Provenance.facts_tracked () > 0);
  check_all_proofs ~rules ~input:i

let test_proof_structure () =
  with_provenance @@ fun () ->
  ignore (Chase.run ~max_depth:3 example1.instance example1.rules);
  let deepest =
    Provenance.fold
      (fun a (e : Provenance.entry) best ->
        match best with
        | Some (_, r) when r >= e.Provenance.round -> best
        | _ -> Some (a, e.Provenance.round))
      None
  in
  match deepest with
  | None -> Alcotest.fail "store populated"
  | Some (a, round) ->
      let p = Proof.of_fact a in
      check_int "depth reaches the creation round" round (Proof.depth p);
      check "size counts distinct facts" true (Proof.size p >= round + 1);
      check "facts lists premises first" true
        (match Proof.facts p with
        | first :: _ -> Instance.mem first example1.instance
        | [] -> false);
      let rs = Proof.rules_used p in
      check_int "rules_used deduplicates" (List.length rs)
        (List.length (List.sort_uniq Rule.compare rs))

(* ------------------------------------------------------------------ *)
(* Rejection: corrupted proofs and certificates are refused *)

let test_check_rejects_corruption () =
  with_provenance @@ fun () ->
  ignore (Chase.run ~max_depth:3 example1.instance example1.rules);
  let some_derived =
    match tracked_facts () with
    | a :: _ -> Proof.of_fact a
    | [] -> Alcotest.fail "store populated"
  in
  let input = example1.instance in
  let rules = example1.rules in
  (* a derived step whose premises are dropped: the body image is no
     longer covered *)
  let corrupt = { some_derived with Proof.premises = [] } in
  check "dropped premises rejected" true
    (Result.is_error (Proof.check ~rules ~input corrupt));
  (* a leaf that is not an input fact *)
  let ghost =
    {
      Proof.fact = Atom.app "Ghost" [ Term.cst "a" ];
      rule = None;
      hom = Subst.empty;
      round = 0;
      premises = [];
    }
  in
  check "foreign leaf rejected" true
    (Result.is_error (Proof.check ~rules ~input ghost));
  (* a rule outside the rule set *)
  let alien = Parser.parse_rules "alien: E(x,y) -> E(y,x)." in
  let renamed = { some_derived with Proof.rule = Some (List.hd alien) } in
  check "foreign rule rejected" true
    (Result.is_error (Proof.check ~rules ~input renamed))

(* ------------------------------------------------------------------ *)
(* Certificates *)

let certificate_of entry depth =
  let v, chase =
    Theorem1.validate_full ~max_depth:depth ~max_atoms:2000
      ~e:entry.Rulesets.e entry.Rulesets.instance entry.Rulesets.rules
  in
  (v, Certificate.of_verdict ~input:entry.Rulesets.instance
        ~e:entry.Rulesets.e ~rules:entry.Rulesets.rules v chase)

let test_zoo_certificates_check () =
  List.iter
    (fun entry ->
      with_provenance @@ fun () ->
      let _, c = certificate_of entry 3 in
      match Certificate.check c with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s: %a" entry.Rulesets.name Certificate.pp_error e)
    Rulesets.zoo

let test_certificate_rejects_corruption () =
  with_provenance @@ fun () ->
  let _, c = certificate_of example1 3 in
  check "the honest certificate checks" true
    (Result.is_ok (Certificate.check c));
  (* a vertex smuggled into the tournament without an edge *)
  let padded =
    {
      c with
      Certificate.tournament =
        Term.cst "zzz_uncovered" :: c.Certificate.tournament;
    }
  in
  check "padded tournament rejected" true
    (Result.is_error (Certificate.check padded));
  (* support withheld: the edge facts lose their proofs *)
  (match c.Certificate.edges with
  | [] -> ()
  | _ ->
      let stripped = { c with Certificate.support = [] } in
      check "stripped support rejected" true
        (Result.is_error (Certificate.check stripped)))

let test_analysis_certificate_checks () =
  with_provenance @@ fun () ->
  let entry = Rulesets.find "fork" in
  let p =
    Nca_surgery.Pipeline.regalize entry.Rulesets.instance entry.Rulesets.rules
  in
  let t = Witness.analyze ~depth:4 ~e:entry.Rulesets.e p.Nca_surgery.Pipeline.final in
  let g = Nca_graph.Digraph.of_instance entry.Rulesets.e t.Witness.full in
  let tournament = Nca_graph.Tournament.max_tournament g in
  let c = Certificate.of_analysis t tournament in
  (match Certificate.check c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "analysis certificate: %a" Certificate.pp_error e);
  (* the full chain is present: witness, trace and valley per edge *)
  List.iter
    (fun (ed : Certificate.edge) ->
      check "edge has a witness" true (ed.Certificate.witness <> None);
      check "edge has a valley" true (ed.Certificate.valley <> None);
      check "edge has a removal trace" true (ed.Certificate.removal <> []))
    c.Certificate.edges

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_populated () =
  with_provenance @@ fun () ->
  ignore (Chase.run ~max_depth:3 example1.instance example1.rules);
  let s = Provenance.stats () in
  check_int "facts = tracked" (Provenance.facts_tracked ())
    s.Provenance.facts;
  check "bytes grow with the store" true
    (s.Provenance.store_bytes >= 48 * s.Provenance.facts);
  check_int "max depth = chase depth for example1" 3 s.Provenance.max_depth

(* ------------------------------------------------------------------ *)
(* Properties *)

let rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed ->
          Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_range 0 5000))

let prop_recorded_proofs_check =
  QCheck.Test.make ~name:"Proof.check accepts every recorded derivation"
    ~count:30 rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let i = Parser.instance "E(c0,c1), A(c0)" in
      with_provenance @@ fun () ->
      ignore (Chase.run ~max_depth:4 ~max_atoms:2000 i rules);
      List.for_all
        (fun a ->
          Result.is_ok (Proof.check ~rules ~input:i (Proof.of_fact a)))
        (tracked_facts ()))

let prop_recording_neutral =
  QCheck.Test.make
    ~name:"provenance-on chase isomorphic to provenance-off" ~count:20
    rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let i = Parser.instance "E(c0,c1), A(c0)" in
      let off = Chase.run ~max_depth:3 ~max_atoms:2000 i rules in
      let on =
        with_provenance @@ fun () ->
        Chase.run ~max_depth:3 ~max_atoms:2000 i rules
      in
      off.Chase.depth = on.Chase.depth
      && Hom.isomorphic off.Chase.instance on.Chase.instance)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_recorded_proofs_check; prop_recording_neutral ]

let () =
  Alcotest.run "provenance"
    [
      ( "derivation",
        [
          Alcotest.test_case "depth and rules_used" `Quick
            test_derivation_depth_rules;
          Alcotest.test_case "database term" `Quick
            test_derivation_database_term;
          Alcotest.test_case "shared label: proofs" `Quick
            test_shared_label_proofs;
          Alcotest.test_case "shared label: rules_used" `Quick
            test_shared_label_rules_used;
        ] );
      ( "store",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "first writer wins" `Quick
            test_first_writer_wins;
          Alcotest.test_case "enable resets" `Quick test_enable_resets;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "chase unchanged" `Quick
            test_chase_unchanged_by_recording;
          Alcotest.test_case "datalog unchanged" `Quick
            test_datalog_unchanged_by_recording;
        ] );
      ( "proofs",
        [
          Alcotest.test_case "chase proofs check" `Quick
            test_chase_proofs_check;
          Alcotest.test_case "datalog proofs check" `Quick
            test_datalog_proofs_check;
          Alcotest.test_case "proof structure" `Quick test_proof_structure;
          Alcotest.test_case "corruption rejected" `Quick
            test_check_rejects_corruption;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "zoo certificates check" `Quick
            test_zoo_certificates_check;
          Alcotest.test_case "corrupted certificate rejected" `Quick
            test_certificate_rejects_corruption;
          Alcotest.test_case "analysis certificate checks" `Quick
            test_analysis_certificate_checks;
        ] );
      ("properties", props);
    ]
