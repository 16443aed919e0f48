open Nca_logic

let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"
let a = Term.cst "a"
let b = Term.cst "b"
let e s t = Atom.app "E" [ s; t ]
let f s t = Atom.app "F" [ s; t ]
let p t = Atom.app "P" [ t ]

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* homomorphisms both ways *)
let hom_equiv a b =
  Hom.exists (Instance.atoms a) b && Hom.exists (Instance.atoms b) a

(* ------------------------------------------------------------------ *)
(* Symbols *)

let test_symbol_basics () =
  let s = Symbol.make "E" 2 in
  check_int "arity" 2 (Symbol.arity s);
  Alcotest.(check string) "name" "E" (Symbol.name s);
  check "equal" true (Symbol.equal s (Symbol.make "E" 2));
  check "arity distinguishes" false (Symbol.equal s (Symbol.make "E" 3));
  check "top is nullary" true (Symbol.arity Symbol.top = 0)

let test_symbol_invalid () =
  Alcotest.check_raises "negative arity"
    (Invalid_argument "Symbol.make: negative arity") (fun () ->
      ignore (Symbol.make "E" (-1)));
  Alcotest.check_raises "empty name"
    (Invalid_argument "Symbol.make: empty name") (fun () ->
      ignore (Symbol.make "" 1))

let test_binary_signature () =
  let s = Symbol.Set.of_list [ Symbol.make "E" 2; Symbol.make "A" 1 ] in
  check "binary" true (Symbol.is_binary_signature s);
  let s3 = Symbol.Set.add (Symbol.make "T" 3) s in
  check "ternary not binary" false (Symbol.is_binary_signature s3)

(* ------------------------------------------------------------------ *)
(* Terms *)

let test_term_kinds () =
  check "var" true (Term.is_var x);
  check "cst" true (Term.is_cst a);
  check "null" true (Term.is_null (Term.null 1));
  check "var mappable" true (Term.is_mappable x);
  check "null mappable" true (Term.is_mappable (Term.null 1));
  check "cst rigid" false (Term.is_mappable a)

let test_term_fresh () =
  let v1 = Term.fresh_var () and v2 = Term.fresh_var () in
  check "fresh vars distinct" false (Term.equal v1 v2);
  let n1 = Term.fresh_null () and n2 = Term.fresh_null () in
  check "fresh nulls distinct" false (Term.equal n1 n2)

let test_term_order_total () =
  let terms = [ x; y; a; b; Term.null 1; Term.null 2 ] in
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 ->
          let c12 = Term.compare t1 t2 and c21 = Term.compare t2 t1 in
          check "antisymmetric" true (Int.compare c12 (-c21) = 0))
        terms)
    terms

(* ------------------------------------------------------------------ *)
(* Atoms *)

let test_atom_basics () =
  let at = e x y in
  check_int "arity" 2 (Atom.arity at);
  check "binary" true (Atom.is_binary at);
  check "edge view" true (Atom.as_edge at = Some (x, y));
  check "vars" true (Term.Set.equal (Atom.vars at) (Term.Set.of_list [ x; y ]));
  check "terms of ground atom" true
    (Term.Set.equal (Atom.terms (e a b)) (Term.Set.of_list [ a; b ]))

let test_atom_arity_mismatch () =
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Atom.make: E/2 applied to 1 arguments") (fun () ->
      ignore (Atom.make (Symbol.make "E" 2) [ x ]))

let test_atom_map () =
  let at = Atom.map (fun t -> if Term.equal t x then a else t) (e x y) in
  check "map substitutes" true (Atom.equal at (e a y))

let test_atom_vars_excludes_constants () =
  check "constants not vars" true
    (Term.Set.equal (Atom.vars (e a y)) (Term.Set.singleton y))

(* ------------------------------------------------------------------ *)
(* Substitutions *)

let test_subst_apply () =
  let s = Subst.of_list [ (x, a); (y, b) ] in
  check "x→a" true (Term.equal (Subst.apply s x) a);
  check "z untouched" true (Term.equal (Subst.apply s z) z);
  check "atom image" true (Atom.equal (Subst.apply_atom s (e x y)) (e a b))

let test_subst_rejects_constants () =
  Alcotest.check_raises "constant domain"
    (Invalid_argument "Subst.add: constant a in domain") (fun () ->
      ignore (Subst.add a x Subst.empty))

let test_subst_compose () =
  let s1 = Subst.singleton x y in
  let s2 = Subst.singleton y a in
  let s = Subst.compose s1 s2 in
  check "x→a through composition" true (Term.equal (Subst.apply s x) a);
  check "y→a kept" true (Term.equal (Subst.apply s y) a)

let test_subst_restrict () =
  let s = Subst.of_list [ (x, a); (y, b) ] in
  let r = Subst.restrict (Term.Set.singleton x) s in
  check "kept" true (Subst.mem x r);
  check "dropped" false (Subst.mem y r)

let test_subst_injective () =
  let s = Subst.of_list [ (x, a); (y, a) ] in
  check "not injective" false
    (Subst.is_injective_on (Term.Set.of_list [ x; y ]) s);
  check "injective on singleton" true
    (Subst.is_injective_on (Term.Set.singleton x) s)

(* ------------------------------------------------------------------ *)
(* Instances *)

let test_instance_basics () =
  let i = Instance.of_list [ e a b; e b a ] in
  check_int "cardinal" 2 (Instance.cardinal i);
  check "mem" true (Instance.mem (e a b) i);
  check "adom" true
    (Term.Set.equal (Instance.adom i) (Term.Set.of_list [ a; b ]));
  check_int "idempotent add" 2 (Instance.cardinal (Instance.add (e a b) i))

let test_instance_index () =
  let i = Instance.of_list [ e a b; f a b; p a ] in
  check_int "E atoms" 1 (List.length (Instance.with_pred (Symbol.make "E" 2) i));
  check_int "absent pred" 0
    (List.length (Instance.with_pred (Symbol.make "Z" 2) i))

let test_instance_remove_updates_index () =
  let i = Instance.of_list [ e a b; e b a ] in
  let i = Instance.remove (e a b) i in
  check_int "one left" 1
    (List.length (Instance.with_pred (Symbol.make "E" 2) i))

let test_instance_set_ops () =
  let i1 = Instance.of_list [ e a b ] and i2 = Instance.of_list [ e b a ] in
  let u = Instance.union i1 i2 in
  check_int "union" 2 (Instance.cardinal u);
  check "subset" true (Instance.subset i1 u);
  check_int "diff" 1 (Instance.cardinal (Instance.diff u i1));
  check_int "inter" 1 (Instance.cardinal (Instance.inter u i1))

let test_instance_restrict () =
  let i = Instance.of_list [ e a b; p a ] in
  let r = Instance.restrict (Symbol.Set.singleton (Symbol.make "P" 1)) i in
  check_int "restricted" 1 (Instance.cardinal r);
  check "kept P" true (Instance.mem (p a) r)

let test_instance_disjoint_union () =
  let i = Instance.of_list [ e x y ] in
  let u = Instance.disjoint_union i i in
  check_int "atoms doubled" 2 (Instance.cardinal u);
  check_int "terms doubled" 4 (Term.Set.cardinal (Instance.adom u))

let test_instance_disjoint_union_keeps_constants () =
  let i = Instance.of_list [ e a b ] in
  let u = Instance.disjoint_union i i in
  (* constants are rigid, so the disjoint union collapses ground parts *)
  check_int "single ground atom" 1 (Instance.cardinal u)

let test_instance_edges () =
  let i = Instance.of_list [ e a b; f b a; p a ] in
  check "edges of E" true (Instance.edges (Symbol.make "E" 2) i = [ (a, b) ])

(* ------------------------------------------------------------------ *)
(* Homomorphisms *)

let test_hom_simple () =
  let tgt = Instance.of_list [ e a b; e b a ] in
  check "pattern maps" true (Hom.exists [ e x y ] tgt);
  check "path of 2 maps" true (Hom.exists [ e x y; e y z ] tgt);
  check "loop pattern maps via a-b-a" true (Hom.exists [ e x y; e y x ] tgt)

let test_hom_respects_constants () =
  let tgt = Instance.of_list [ e a b ] in
  check "constant matches itself" true (Hom.exists [ e a y ] tgt);
  check "wrong constant fails" false (Hom.exists [ e b y ] tgt)

let test_hom_count () =
  let tgt = Instance.of_list [ e a b; e b a ] in
  check_int "two homs for an edge" 2 (Hom.count [ e x y ] tgt);
  check_int "two round trips" 2 (Hom.count [ e x y; e y x ] tgt)

let test_hom_injective () =
  let tgt = Instance.of_list [ e a a ] in
  check "non-injective ok" true (Hom.exists [ e x y ] tgt);
  check "injective fails on loop" false (Hom.exists ~inj:true [ e x y ] tgt);
  let tgt2 = Instance.of_list [ e a b ] in
  check "injective ok on proper edge" true (Hom.exists ~inj:true [ e x y ] tgt2)

let test_hom_init () =
  let tgt = Instance.of_list [ e a b; e b a ] in
  let init = Subst.singleton x b in
  check "seeded search" true (Hom.exists ~init [ e x y ] tgt);
  let got = Hom.find ~init [ e x y ] tgt in
  check "binding respected" true
    (match got with Some s -> Term.equal (Subst.apply s x) b | None -> false)

let test_hom_equiv () =
  let i1 = Instance.of_list [ e x y ] in
  let i2 = Instance.of_list [ e x y; e z (Term.var "w") ] in
  check "hom equivalent patterns" true (hom_equiv i1 i2);
  let i3 = Instance.of_list [ e x x ] in
  check "loop not equivalent to edge" false (hom_equiv i1 i3);
  check "edge maps into loop" true (Hom.exists (Instance.atoms i1) i3)

let test_hom_iso () =
  let i1 = Instance.of_list [ e x y ] in
  let i2 = Instance.of_list [ e z (Term.var "w") ] in
  check "renamed edge isomorphic" true (Hom.isomorphic i1 i2);
  let i3 = Instance.of_list [ e x y; e y z ] in
  check "different sizes" false (Hom.isomorphic i1 i3)

(* ------------------------------------------------------------------ *)
(* CQs *)

let test_cq_basics () =
  let q = Cq.make ~answer:[ x ] [ e x y ] in
  check_int "size" 1 (Cq.size q);
  check "answer vars" true
    (Term.Set.equal (Cq.answer_vars q) (Term.Set.singleton x));
  check "exist vars" true
    (Term.Set.equal (Cq.exist_vars q) (Term.Set.singleton y))

let test_cq_unsafe_answer () =
  Alcotest.check_raises "answer not in body"
    (Invalid_argument "Cq.make: unsafe answer variable z") (fun () ->
      ignore (Cq.make ~answer:[ z ] [ e x y ]))

let test_cq_holds () =
  let i = Instance.of_list [ e a b ] in
  let q = Cq.make ~answer:[ x ] [ e x y ] in
  check "holds" true (Cq.holds i q);
  check "holds at a" true (Cq.holds ~tuple:[ a ] i q);
  check "fails at b" false (Cq.holds ~tuple:[ b ] i q)

let test_cq_holds_inj () =
  let i = Instance.of_list [ e a a ] in
  let q = Cq.boolean [ e x y ] in
  check "holds plain" true (Cq.holds i q);
  check "fails injectively" false (Cq.holds_inj i q)

let test_cq_answers () =
  let i = Instance.of_list [ e a b; e b a ] in
  let q = Cq.make ~answer:[ x; y ] [ e x y ] in
  check_int "two answers" 2 (List.length (Cq.answers i q))

let test_cq_subsumes () =
  let general = Cq.boolean [ e x y ] in
  let specific = Cq.boolean [ e x x ] in
  check "edge subsumes loop" true (Cq.subsumes general specific);
  check "loop does not subsume edge" false (Cq.subsumes specific general)

let test_cq_subsumes_answers () =
  let q1 = Cq.make ~answer:[ x; y ] [ e x y ] in
  let q2 = Cq.make ~answer:[ x; y ] [ e x y; e y x ] in
  check "q1 subsumes q2" true (Cq.subsumes q1 q2);
  check "q2 does not subsume q1" false (Cq.subsumes q2 q1)

let test_cq_loop_query () =
  let lq = Cq.loop_query (Symbol.make "E" 2) in
  check "no loop" false (Cq.holds (Instance.of_list [ e a b ]) lq);
  check "loop" true (Cq.holds (Instance.of_list [ e a a ]) lq)

let test_cq_atom_query () =
  let q = Cq.atom_query (Symbol.make "E" 2) in
  check_int "answer arity" 2 (List.length (Cq.answer q));
  check "holds on edge" true
    (Cq.holds ~tuple:[ a; b ] (Instance.of_list [ e a b ]) q)

let test_cq_rename_apart () =
  let q = Cq.make ~answer:[ x ] [ e x y ] in
  let q' = Cq.rename_apart q in
  check "vars disjoint" true
    (Term.Set.is_empty (Term.Set.inter (Cq.vars q) (Cq.vars q')));
  check "still equivalent" true (Cq.equivalent q q')

(* ------------------------------------------------------------------ *)
(* UCQs *)

let test_ucq_holds () =
  let u = Ucq.make [ Cq.boolean [ e x x ]; Cq.boolean [ f x y ] ] in
  check "first disjunct" true (Ucq.holds (Instance.of_list [ e a a ]) u);
  check "second disjunct" true (Ucq.holds (Instance.of_list [ f a b ]) u);
  check "neither" false (Ucq.holds (Instance.of_list [ e a b ]) u)

let test_ucq_cover () =
  let u =
    Ucq.make
      [
        Cq.boolean [ e x y ];
        Cq.boolean [ e x x ];
        (* subsumed by the edge *)
        Cq.boolean [ f x y ];
      ]
  in
  check_int "cover drops the loop" 2 (Ucq.size (Ucq.cover u))

let test_ucq_cover_keeps_one_of_equivalent () =
  let u =
    Ucq.make [ Cq.boolean [ e x y ]; Cq.boolean [ e z (Term.var "w") ] ]
  in
  check_int "equivalent disjuncts collapse" 1 (Ucq.size (Ucq.cover u))

let test_ucq_arity_mismatch () =
  Alcotest.check_raises "mismatched arities"
    (Invalid_argument "Ucq.make: mismatched answer arities") (fun () ->
      ignore
        (Ucq.make [ Cq.make ~answer:[ x ] [ e x y ]; Cq.boolean [ e x y ] ]))

let test_ucq_witness () =
  let u = Ucq.make [ Cq.make ~answer:[ x; y ] [ e x y ] ] in
  let i = Instance.of_list [ e a b ] in
  check "witness found" true
    (Option.is_some (Ucq.witness ~tuple:[ a; b ] ~inj:true i u));
  check "wrong tuple" false
    (Option.is_some (Ucq.witness ~tuple:[ b; a ] ~inj:true i u))

(* ------------------------------------------------------------------ *)
(* Rules *)

let test_rule_parts () =
  let r = Rule.make [ e x y ] [ e y z ] in
  check "frontier" true
    (Term.Set.equal (Rule.frontier r) (Term.Set.singleton y));
  check "exist" true
    (Term.Set.equal (Rule.exist_vars r) (Term.Set.singleton z));
  check "not datalog" false (Rule.is_datalog r);
  check "datalog" true (Rule.is_datalog (Rule.make [ e x y ] [ e y x ]))

let test_rule_rename_apart () =
  let r = Rule.make [ e x y ] [ e y z ] in
  let r' = Rule.rename_apart r in
  check "no shared vars" true
    (Term.Set.is_empty
       (Term.Set.inter
          (Term.Set.union (Rule.body_vars r) (Rule.head_vars r))
          (Term.Set.union (Rule.body_vars r') (Rule.head_vars r'))))

let test_rule_split () =
  let dl, ex =
    Rule.split_datalog
      [ Rule.make [ e x y ] [ e y x ]; Rule.make [ e x y ] [ e y z ] ]
  in
  check_int "one datalog" 1 (List.length dl);
  check_int "one existential" 1 (List.length ex)

let test_rule_signature () =
  let sign = Rule.signature [ Rule.make [ e x y ] [ f y z ] ] in
  check_int "two predicates" 2 (Symbol.Set.cardinal sign)

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_rule () =
  let r = Parser.rule "E(x,y), E(y,z) -> E(x,z)" in
  check_int "body size" 2 (List.length (Rule.body r));
  check "datalog" true (Rule.is_datalog r)

let test_parse_named_rule () =
  let r = Parser.parse_rule "tc: E(x,y) -> E(y,z)." in
  Alcotest.(check string) "name" "tc" (Rule.name r);
  check "existential" false (Rule.is_datalog r)

let test_parse_facts () =
  let i = Parser.instance "E(a,b), P(a)" in
  check_int "two facts" 2 (Instance.cardinal i);
  check "constants" true (Term.Set.for_all Term.is_cst (Instance.adom i))

let test_parse_program () =
  let prog =
    Parser.parse_program
      {| # a comment
         E(a,b).
         tc: E(x,y), E(y,z) -> E(x,z).
         ? E(x,x). |}
  in
  check_int "facts" 1 (Instance.cardinal prog.facts);
  check_int "rules" 1 (List.length prog.rules);
  check_int "queries" 1 (List.length prog.queries)

let test_parse_query_answers () =
  let q = Parser.query "?(x, y) E(x,y), E(y,x)" in
  check_int "answer arity" 2 (List.length (Cq.answer q));
  check_int "body" 2 (Cq.size q)

let test_parse_nullary () =
  let prog = Parser.parse_program "TOP. Start -> E(x,y)." in
  check "top fact parsed" true (Instance.mem Atom.top prog.facts);
  check_int "rule parsed" 1 (List.length prog.rules)

let test_parse_arity_error () =
  check "arity clash rejected" true
    (try
       ignore (Parser.parse_program "E(a,b). E(a,b,c).");
       false
     with Parser.Error _ -> true)

let test_parse_syntax_error () =
  check "unterminated rule rejected" true
    (try
       ignore (Parser.parse_program "E(x,y) -> ");
       false
     with Parser.Error _ -> true)

(* Every zoo dump — facts, then rules printed with their "∃z." head
   prefix — parses back to the entry's facts and rules. *)
let test_parse_zoo_roundtrip () =
  List.iter
    (fun (e : Nca_core.Rulesets.entry) ->
      let prog =
        Parser.parse_program (Fmt.str "%a" Nca_core.Rulesets.pp_entry e)
      in
      check (e.name ^ " facts") true (Instance.equal prog.facts e.instance);
      check (e.name ^ " rules") true (List.equal Rule.equal prog.rules e.rules))
    Nca_core.Rulesets.zoo

let test_parse_exists_prefix_errors () =
  let rejected input =
    try
      ignore (Parser.parse_program input);
      false
    with Parser.Error _ -> true
  in
  check "plain prefix accepted" false (rejected "E(x,y) -> ∃z. E(y,z).");
  check "two variables accepted" false
    (rejected "r: A(x) -> ∃z,w. E(x,z), E(z,w).");
  check "body variable rejected" true (rejected "E(x,y) -> ∃y. E(y,z).");
  check "variable missing from head rejected" true
    (rejected "E(x,y) -> ∃w. E(y,z).");
  check "missing dot rejected" true (rejected "E(x,y) -> ∃z E(y,z).")

(* ------------------------------------------------------------------ *)
(* Interning and hash-consing *)

let test_names_roundtrip () =
  let id = Names.intern "somename" in
  Alcotest.(check string) "name resolves" "somename" (Names.name id);
  check_int "intern idempotent" id (Names.intern "somename");
  check "known after intern" true (Names.known "somename");
  check_int "roundtrip through name" id (Names.intern (Names.name id))

let test_term_interned_identity () =
  check "same var same value" true (Term.equal (Term.var "v!") (Term.var "v!"));
  check "var and cst differ" false (Term.equal (Term.var "v!") (Term.cst "v!"));
  check "names preserved" true (String.equal (Term.name (Term.var "v!")) "v!")

let test_symbol_interned_identity () =
  let s1 = Symbol.make "Q!" 2 and s2 = Symbol.make "Q!" 2 in
  check_int "same id" (Symbol.id s1) (Symbol.id s2);
  check "different arity, different id" false
    (Symbol.id s1 = Symbol.id (Symbol.make "Q!" 3))

let test_atom_hashcons_shares () =
  let a1 = e x y and a2 = e x y in
  check "physically shared" true (a1 == a2);
  check "hash agrees" true (Atom.hash a1 = Atom.hash a2);
  check "distinct atoms distinct ids" false (Atom.id (e x y) = Atom.id (e y x))

let test_fresh_skips_claimed_names () =
  (* claim the name the generator would produce two steps from now; the
     generator must skip it rather than alias the user's variable *)
  let v1 = Term.fresh_var () in
  let n = int_of_string (String.sub (Term.name v1) 2 (String.length (Term.name v1) - 2)) in
  let claimed = Term.var (Printf.sprintf "_v%d" (n + 2)) in
  let v2 = Term.fresh_var () in
  let v3 = Term.fresh_var () in
  check "next fresh distinct" false (Term.equal v2 claimed);
  check "fresh skips the claimed name" false (Term.equal v3 claimed);
  check "fresh names still distinct" false (Term.equal v2 v3)

let test_parser_rejects_reserved () =
  let rejected input =
    try
      ignore (Parser.parse_program input);
      false
    with Parser.Error { message; _ } ->
      (* the message must point at the reserved namespace *)
      let contains_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      contains_sub message "reserved"
  in
  check "reserved rule variable" true (rejected "E(_x,y) -> E(y,x).");
  check "reserved fact constant" true (rejected "E(_a,b).");
  check "reserved query variable" true (rejected "? E(_x,_x).");
  check "reserved rule label" true (rejected "_r: E(x,y) -> E(y,x).");
  check "inner underscore fine" true
    (try
       ignore (Parser.parse_program "E(x_y,y) -> E(y,x_y).");
       true
     with Parser.Error _ -> false)

let name_gen =
  QCheck.Gen.(
    map
      (fun (c, i) -> Printf.sprintf "%c%d" (Char.chr (Char.code 'a' + (abs c mod 26))) (abs i mod 1000))
      (pair int int))

let prop_intern_roundtrip =
  QCheck.Test.make ~name:"intern → name → intern is the identity" ~count:500
    (QCheck.make name_gen) (fun s ->
      let id = Names.intern s in
      String.equal (Names.name id) s && Names.intern (Names.name id) = id)

let symbol_gen =
  QCheck.Gen.(
    map
      (fun (i, a) ->
        Symbol.make (Printf.sprintf "S%d" (abs i mod 5)) (abs a mod 3))
      (pair int int))

let prop_symbol_compare_agrees =
  QCheck.Test.make
    ~name:"interned Symbol.equal/compare/hash agree with structural semantics"
    ~count:500
    (QCheck.make QCheck.Gen.(pair symbol_gen symbol_gen))
    (fun (s, t) ->
      let structurally_equal = Symbol.compare_names s t = 0 in
      Symbol.equal s t = structurally_equal
      && Symbol.compare s t = 0 = structurally_equal
      && ((not structurally_equal) || Symbol.hash s = Symbol.hash t))

(* ------------------------------------------------------------------ *)
(* Instance.remove index consistency *)

let test_instance_interleaved_remove () =
  let i = Instance.of_list [ e a b; e b a ] in
  let i = Instance.remove (e a b) i in
  check "removed gone" false (Instance.mem (e a b) i);
  let i = Instance.remove (e a b) i in
  check_int "second remove is a no-op" 1 (Instance.cardinal i);
  let i = Instance.add (e a b) i in
  check "re-added" true (Instance.mem (e a b) i);
  check_int "re-add visible in pred index" 2
    (List.length (Instance.with_pred (Symbol.make "E" 2) i));
  check_int "re-add visible in positional index" 1
    (List.length (Nca_oracle.Hom.candidates (e a y) Subst.empty i));
  let i = Instance.remove (e b a) i in
  let i = Instance.remove (e a b) i in
  check "empty again" true (Instance.is_empty i);
  check_int "pred index empty" 0
    (List.length (Instance.with_pred (Symbol.make "E" 2) i));
  check_int "positional index empty" 0
    (List.length (Nca_oracle.Hom.candidates (e a y) Subst.empty i))

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let term_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Term.var (Printf.sprintf "x%d" (abs i mod 5))) int;
        map (fun i -> Term.cst (Printf.sprintf "c%d" (abs i mod 3))) int;
      ])

let atom_gen =
  QCheck.Gen.(
    let* s = term_gen in
    let* t = term_gen in
    let* choice = bool in
    return (if choice then Atom.app "E" [ s; t ] else Atom.app "F" [ s; t ]))

let instance_gen =
  QCheck.Gen.(map Instance.of_list (list_size (int_range 0 12) atom_gen))

let instance_arb = QCheck.make instance_gen

let prop_term_compare_agrees =
  QCheck.Test.make
    ~name:"interned Term.equal/compare/hash agree with structural semantics"
    ~count:500
    (QCheck.make QCheck.Gen.(pair term_gen term_gen))
    (fun (t, u) ->
      let structurally_equal = Term.compare_names t u = 0 in
      Term.equal t u = structurally_equal
      && Term.compare t u = 0 = structurally_equal
      && ((not structurally_equal) || Term.hash t = Term.hash u))

let prop_atom_compare_agrees =
  QCheck.Test.make
    ~name:"hash-consed Atom.equal/compare/hash agree with structural semantics"
    ~count:500
    (QCheck.make QCheck.Gen.(pair atom_gen atom_gen))
    (fun (p, q) ->
      let structurally_equal = Atom.compare_structural p q = 0 in
      Atom.equal p q = structurally_equal
      && Atom.compare p q = 0 = structurally_equal
      && structurally_equal = (p == q)
      && ((not structurally_equal) || Atom.hash p = Atom.hash q))

(* Arbitrary interleaved add/remove sequences (including re-adds): the
   incrementally maintained instance must be indistinguishable — through
   every index-backed observation — from one rebuilt from scratch. *)
let ops_gen = QCheck.Gen.(list_size (int_range 0 30) (pair bool atom_gen))

let apply_ops ops =
  List.fold_left
    (fun (inst, reference) (add, atom) ->
      if add then (Instance.add atom inst, Atom.Set.add atom reference)
      else (Instance.remove atom inst, Atom.Set.remove atom reference))
    (Instance.empty, Atom.Set.empty)
    ops

let same_observations inst reference =
  let rebuilt = Instance.of_list (Atom.Set.elements reference) in
  let preds = [ Symbol.make "E" 2; Symbol.make "F" 2; Symbol.make "P" 1 ] in
  let pattern_subs = [ Subst.empty; Subst.singleton (Term.var "x0") a ] in
  let patterns = [ e x y; e a y; e (Term.var "x0") (Term.var "x0"); f x b ] in
  Atom.Set.equal (Instance.to_set inst) reference
  && Instance.cardinal inst = Atom.Set.cardinal reference
  && List.for_all
       (fun p ->
         List.equal Atom.equal
           (Instance.with_pred p inst)
           (Instance.with_pred p rebuilt)
         && Instance.pred_cardinal p inst = Instance.pred_cardinal p rebuilt)
       preds
  && List.for_all
       (fun pat ->
         List.for_all
           (fun sub ->
             List.equal Atom.equal
               (Nca_oracle.Hom.candidates pat sub inst)
               (Nca_oracle.Hom.candidates pat sub rebuilt)
             && Nca_oracle.Hom.candidate_count pat sub inst
                = Nca_oracle.Hom.candidate_count pat sub rebuilt)
           pattern_subs)
       patterns

let prop_instance_indexes_consistent =
  QCheck.Test.make
    ~name:"predicate and positional indexes track atoms under add/remove"
    ~count:500 (QCheck.make ops_gen) (fun ops ->
      let inst, reference = apply_ops ops in
      same_observations inst reference)

let prop_instance_remove_then_readd =
  QCheck.Test.make ~name:"removing then re-adding every atom is the identity"
    ~count:200 (QCheck.make ops_gen) (fun ops ->
      let inst, reference = apply_ops ops in
      let cleared = Atom.Set.fold Instance.remove reference inst in
      let restored = Atom.Set.fold Instance.add reference cleared in
      Instance.is_empty cleared && same_observations restored reference)

let prop_union_commutes =
  QCheck.Test.make ~name:"instance union commutes" ~count:100
    (QCheck.pair instance_arb instance_arb) (fun (i1, i2) ->
      Instance.equal (Instance.union i1 i2) (Instance.union i2 i1))

let prop_union_idempotent =
  QCheck.Test.make ~name:"instance union idempotent" ~count:100 instance_arb
    (fun i -> Instance.equal (Instance.union i i) i)

let prop_adom_union =
  QCheck.Test.make ~name:"adom distributes over union" ~count:100
    (QCheck.pair instance_arb instance_arb) (fun (i1, i2) ->
      Term.Set.equal
        (Instance.adom (Instance.union i1 i2))
        (Term.Set.union (Instance.adom i1) (Instance.adom i2)))

let prop_identity_hom =
  QCheck.Test.make ~name:"identity homomorphism exists" ~count:100
    instance_arb (fun i -> Instance.is_empty i || Hom.exists (Instance.atoms i) i)

let prop_hom_equiv_reflexive =
  QCheck.Test.make ~name:"hom-equivalence reflexive" ~count:50 instance_arb
    (fun i -> Instance.is_empty i || hom_equiv i i)

let prop_subst_apply_ground =
  QCheck.Test.make ~name:"substitution fixes constants" ~count:100
    (QCheck.make term_gen) (fun t ->
      let s = Subst.of_list [ (x, a); (y, b) ] in
      (not (Term.is_cst t)) || Term.equal (Subst.apply s t) t)

let prop_rename_apart_equiv =
  QCheck.Test.make ~name:"rename_apart preserves hom-equivalence" ~count:50
    instance_arb (fun i ->
      QCheck.assume (not (Instance.is_empty i));
      let i', _ = Instance.rename_apart ~avoid:Term.Set.empty i in
      hom_equiv i i')

let prop_rename_apart_avoids =
  QCheck.Test.make ~name:"rename_apart honors ~avoid" ~count:200
    (QCheck.pair instance_arb instance_arb) (fun (i, j) ->
      (* ask the renaming to avoid everything in [j] — including terms
         that [fresh_var] would produce next, which is what a silently
         ignored ~avoid gets wrong *)
      let avoid = Term.Set.union (Instance.adom j) (Instance.adom i) in
      let i', _ = Instance.rename_apart ~avoid i in
      Term.Set.for_all
        (fun t -> (not (Term.is_mappable t)) || not (Term.Set.mem t avoid))
        (Instance.adom i'))

(* An order-naive reference solver: no goal reordering, candidates by
   predicate scan only. The indexed engine (positional index + fewest
   candidates first) must enumerate exactly the same homomorphisms. *)
let naive_match sub pat fact =
  let rec go sub ps fs =
    match (ps, fs) with
    | [], [] -> Some sub
    | s :: ps, t :: fs -> (
        if not (Term.is_mappable s) then
          if Term.equal s t then go sub ps fs else None
        else
          match Subst.find_opt s sub with
          | Some u -> if Term.equal u t then go sub ps fs else None
          | None -> go (Subst.add s t sub) ps fs)
    | _ -> None
  in
  go sub (Atom.args pat) (Atom.args fact)

let rec naive_homs sub pats tgt =
  match pats with
  | [] -> [ sub ]
  | pat :: rest ->
      List.concat_map
        (fun fact ->
          match naive_match sub pat fact with
          | Some sub' -> naive_homs sub' rest tgt
          | None -> [])
        (Instance.with_pred (Atom.pred pat) tgt)

let subst_compare s1 s2 =
  List.compare
    (fun (a, b) (c, d) ->
      match Term.compare a c with 0 -> Term.compare b d | n -> n)
    (Subst.bindings s1) (Subst.bindings s2)

let pattern_arb =
  QCheck.make QCheck.Gen.(list_size (int_range 1 3) atom_gen)

let prop_hom_indexed_matches_naive =
  QCheck.Test.make ~name:"indexed Hom.all/Hom.count agree with naive scan"
    ~count:500
    (QCheck.pair pattern_arb instance_arb)
    (fun (pat, i) ->
      let naive = List.sort subst_compare (naive_homs Subst.empty pat i) in
      let indexed = List.sort subst_compare (Hom.all pat i) in
      List.equal Subst.equal naive indexed
      && List.length naive = Hom.count pat i)

let prop_candidates_sound_and_pruning =
  QCheck.Test.make ~name:"Nca_oracle.Hom.candidates over-approximates matches"
    ~count:500
    (QCheck.pair (QCheck.make atom_gen) instance_arb)
    (fun (pat, i) ->
      let cands = Nca_oracle.Hom.candidates pat Subst.empty i in
      let by_pred = Instance.with_pred (Atom.pred pat) i in
      (* sound: every atom matching the pattern is among the candidates *)
      List.for_all
        (fun fact ->
          Option.is_none (naive_match Subst.empty pat fact)
          || List.exists (Atom.equal fact) cands)
        by_pred
      (* never coarser than the predicate scan *)
      && List.length cands <= List.length by_pred)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_union_commutes;
      prop_union_idempotent;
      prop_adom_union;
      prop_identity_hom;
      prop_hom_equiv_reflexive;
      prop_subst_apply_ground;
      prop_rename_apart_equiv;
      prop_rename_apart_avoids;
      prop_hom_indexed_matches_naive;
      prop_candidates_sound_and_pruning;
      prop_intern_roundtrip;
      prop_term_compare_agrees;
      prop_symbol_compare_agrees;
      prop_atom_compare_agrees;
      prop_instance_indexes_consistent;
      prop_instance_remove_then_readd;
    ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "logic"
    [
      ( "symbol",
        [
          tc "basics" test_symbol_basics;
          tc "invalid" test_symbol_invalid;
          tc "binary signature" test_binary_signature;
        ] );
      ( "term",
        [
          tc "kinds" test_term_kinds;
          tc "fresh" test_term_fresh;
          tc "total order" test_term_order_total;
        ] );
      ( "atom",
        [
          tc "basics" test_atom_basics;
          tc "arity mismatch" test_atom_arity_mismatch;
          tc "map" test_atom_map;
          tc "vars vs constants" test_atom_vars_excludes_constants;
        ] );
      ( "subst",
        [
          tc "apply" test_subst_apply;
          tc "rejects constants" test_subst_rejects_constants;
          tc "compose" test_subst_compose;
          tc "restrict" test_subst_restrict;
          tc "injectivity" test_subst_injective;
        ] );
      ( "instance",
        [
          tc "basics" test_instance_basics;
          tc "index" test_instance_index;
          tc "remove updates index" test_instance_remove_updates_index;
          tc "set ops" test_instance_set_ops;
          tc "restrict" test_instance_restrict;
          tc "disjoint union" test_instance_disjoint_union;
          tc "disjoint union constants"
            test_instance_disjoint_union_keeps_constants;
          tc "edges" test_instance_edges;
        ] );
      ( "hom",
        [
          tc "simple" test_hom_simple;
          tc "constants" test_hom_respects_constants;
          tc "count" test_hom_count;
          tc "injective" test_hom_injective;
          tc "seeded" test_hom_init;
          tc "equivalence" test_hom_equiv;
          tc "isomorphism" test_hom_iso;
        ] );
      ( "cq",
        [
          tc "basics" test_cq_basics;
          tc "unsafe answer" test_cq_unsafe_answer;
          tc "holds" test_cq_holds;
          tc "holds injectively" test_cq_holds_inj;
          tc "answers" test_cq_answers;
          tc "subsumption" test_cq_subsumes;
          tc "subsumption with answers" test_cq_subsumes_answers;
          tc "loop query" test_cq_loop_query;
          tc "atom query" test_cq_atom_query;
          tc "rename apart" test_cq_rename_apart;
        ] );
      ( "ucq",
        [
          tc "holds" test_ucq_holds;
          tc "cover" test_ucq_cover;
          tc "cover equivalents" test_ucq_cover_keeps_one_of_equivalent;
          tc "arity mismatch" test_ucq_arity_mismatch;
          tc "witness" test_ucq_witness;
        ] );
      ( "rule",
        [
          tc "parts" test_rule_parts;
          tc "rename apart" test_rule_rename_apart;
          tc "split datalog" test_rule_split;
          tc "signature" test_rule_signature;
        ] );
      ( "parser",
        [
          tc "rule" test_parse_rule;
          tc "named rule" test_parse_named_rule;
          tc "facts" test_parse_facts;
          tc "program" test_parse_program;
          tc "query answers" test_parse_query_answers;
          tc "nullary" test_parse_nullary;
          tc "arity error" test_parse_arity_error;
          tc "syntax error" test_parse_syntax_error;
          tc "zoo dump roundtrip" test_parse_zoo_roundtrip;
          tc "exists prefix errors" test_parse_exists_prefix_errors;
          tc "reserved namespace" test_parser_rejects_reserved;
        ] );
      ( "interning",
        [
          tc "names roundtrip" test_names_roundtrip;
          tc "term identity" test_term_interned_identity;
          tc "symbol identity" test_symbol_interned_identity;
          tc "atom hash-consing" test_atom_hashcons_shares;
          tc "fresh skips claimed names" test_fresh_skips_claimed_names;
          tc "interleaved remove" test_instance_interleaved_remove;
        ] );
      ("properties", props);
    ]
