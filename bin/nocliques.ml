(* nocliques — command-line front end to the No-Cliques-Allowed toolkit.

   Subcommands:
     chase       run the oblivious chase on a program file
     explain     print the derivation DAG of one chase fact
     rewrite     UCQ-rewrite a query against the file's rules
     properties  syntactic + bdd report for a rule set
     lint        static analysis with typed NCA0xx diagnostics
     classify    chase-termination verdict (acyclicity hierarchy)
     surgery     run the Section-4 regalization pipeline
     analyze     full Section-5 valley/witness analysis
     tournament  Theorem-1 verdict (tournament vs loop)
     classes     syntactic classes of a rule set
     finite      bounded finite-model search
     dot         the chase's E-graph as Graphviz DOT
     zoo         list or dump the built-in rule sets
     debug       intern-stats, plan, termination-graph

   This file is cmdliner wiring only: the bodies are in
   [Nca_cli.Commands], and [Nca_cli.Epilogue] decides the exit status. *)

open Cmdliner
module Cterm = Cmdliner.Term
module Epilogue = Nca_cli.Epilogue
module Commands = Nca_cli.Commands

(* argument shapes *)

(* an integer of at least [min]: a negative depth or fresh-element count
   is a usage error, not a silent depth-0 run or a hang *)
let count ?(min = 0) () =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ | None ->
        Error (`Msg (Fmt.str "expected an integer >= %d, got %S" min s))
  in
  Arg.conv (parse, Fmt.int)

(* a non-negative float: a negative timeout is a usage error, not a
   deadline already passed *)
let seconds =
  let parse s =
    match float_of_string_opt s with
    | Some x when x >= 0. -> Ok x
    | Some _ | None ->
        Error (`Msg (Fmt.str "expected a number of seconds >= 0, got %S" s))
  in
  Arg.conv (parse, Fmt.float)

let count_arg ?min names default ~doc =
  Arg.(value & opt (count ?min ()) default & info names ~docv:"N" ~doc)

let some_count_arg names ~doc =
  Arg.(value & opt (some (count ())) None & info names ~docv:"N" ~doc)

let flag_arg names ~doc = Arg.(value & flag & info names ~doc)

let path_arg ?(docv = "FILE") names ~doc =
  Arg.(value & opt (some string) None & info names ~docv ~doc)

let pos_arg n ~docv ~doc = Arg.(pos n (some string) None & info [] ~docv ~doc)

(* common args *)

let file_arg =
  Arg.required
    (pos_arg 0 ~docv:"FILE"
       ~doc:
         "Program file (facts, rules, queries), or the name of a built-in \
          rule set (see $(b,zoo)).")

let depth_arg = count_arg [ "d"; "depth" ] 6 ~doc:"Chase depth budget."

let max_atoms_arg =
  count_arg [ "max-atoms" ] 20000 ~doc:"Chase size budget (atoms)."

let rounds_arg = count_arg [ "rounds" ] 10 ~doc:"Rewriting rounds budget."

let edge_arg =
  Arg.(
    value & opt string "E"
    & info [ "e"; "edge" ] ~docv:"PRED"
        ~doc:"Binary predicate used for tournament and loop queries.")

let out_arg = path_arg [ "o"; "output" ] ~doc:"Write DOT here."

(* observability & budget options, shared by every engine subcommand *)

let obs_term =
  let trace_arg =
    flag_arg [ "trace" ]
      ~doc:
        "Print the telemetry tree (spans with call counts and timings, \
         counters) to stderr after the run."
  in
  let stats_json_arg =
    flag_arg [ "stats-json" ]
      ~doc:
        "Print the telemetry snapshot as one line of JSON (schema \
         nocliques/stats/v6) to stdout after the run."
  in
  let trace_json_arg =
    path_arg [ "trace-json" ]
      ~doc:
        "Record an event timeline and write it as Chrome trace-event JSON \
         to $(docv) ($(b,-) for stdout) — loadable in Perfetto or \
         chrome://tracing. Written even when the run stops on an exhausted \
         budget."
  in
  let flame_arg =
    path_arg [ "flame" ]
      ~doc:
        "Record the event timeline and write folded stacks (self-time per \
         stack, flamegraph.pl / speedscope input) to $(docv) ($(b,-) for \
         stdout)."
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some seconds) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the engines. On expiry the run stops at \
             the next checkpoint, reports what was computed, and exits \
             with status 3.")
  in
  let provenance_arg =
    flag_arg [ "provenance" ]
      ~doc:
        "Record fact-level provenance during the run. Does not change the \
         command's output by itself, but populates the provenance counters \
         of --stats-json and the store behind the proof artefacts (implied \
         by --explain, --proof-json, --proof-dot)."
  in
  let jobs_arg =
    count_arg ~min:1 [ "j"; "jobs" ] 1
      ~doc:
        "Accepted for script compatibility and otherwise ignored: the \
         engine is sequential, so output and behaviour are the same at any \
         $(docv) >= 1."
  in
  Cterm.(
    const (fun trace stats_json trace_json flame timeout provenance _jobs ->
        { Epilogue.trace; stats_json; trace_json; flame; timeout; provenance })
    $ trace_arg $ stats_json_arg $ trace_json_arg $ flame_arg $ timeout_arg
    $ provenance_arg $ jobs_arg)

(* proof artefacts (--proof-json / --proof-dot), shared by the
   proof-emitting subcommands *)

let proofs_term =
  let json_arg =
    path_arg [ "proof-json" ]
      ~doc:
        "Write the proof object (schema nocliques/proof/v1) as one line of \
         JSON to $(docv) ($(b,-) for stdout). Implies --provenance."
  in
  let dot_arg =
    path_arg [ "proof-dot" ]
      ~doc:
        "Write the derivation DAG as Graphviz DOT to $(docv) ($(b,-) for \
         stdout). Implies --provenance."
  in
  Cterm.(
    const (fun proof_json proof_dot -> { Epilogue.proof_json; proof_dot })
    $ json_arg $ dot_arg)

(* Subcommands over FILE. [options] applies the command's own options to
   its body, which then takes FILE's name, the proof artefact paths and
   the loaded program; the program is loaded before recording starts.
   [provenance] forces provenance recording on. *)

let recorded ?(provenance = Cterm.const false)
    ?(proofs = Cterm.const Epilogue.no_proofs) name ~doc options =
  let run file proofs provenance obs command =
    Epilogue.run ~obs ~proofs ~provenance (fun () ->
        command file proofs (Epilogue.load file))
  in
  Cmd.v (Cmd.info name ~doc)
    Cterm.(const run $ file_arg $ proofs $ provenance $ obs_term $ options)

let unrecorded name ~doc options =
  let run file command =
    Epilogue.plain (fun () -> command file (Epilogue.load file))
  in
  Cmd.v (Cmd.info name ~doc) Cterm.(const run $ file_arg $ options)

(* chase *)

let chase_cmd =
  let print_arg = flag_arg [ "print" ] ~doc:"Print the chase instance." in
  let explain_arg =
    flag_arg [ "explain" ]
      ~doc:
        "Print the derivation of the deepest derived fact (rule, round, \
         parent facts, recursively). Implies --provenance."
  in
  let explain_nulls_arg =
    flag_arg [ "explain-nulls" ]
      ~doc:
        "Print the derivation trace of the deepest invented term (the \
         per-null trace over triggers; empty on Datalog-only runs)."
  in
  recorded "chase" ~provenance:explain_arg ~proofs:proofs_term
    ~doc:"Run the oblivious chase and answer the queries."
    Cterm.(
      const (fun depth max_atoms print explain explain_nulls _ proofs ->
          Commands.chase ~depth ~max_atoms ~print ~explain ~explain_nulls
            ~proofs)
      $ depth_arg $ max_atoms_arg $ print_arg $ explain_arg
      $ explain_nulls_arg)

(* explain *)

let explain_cmd =
  let fact_arg =
    Arg.required
      (pos_arg 1 ~docv:"FACT"
         ~doc:
           "The fact to explain, as printed by the chase — e.g. \
            $(b,E(a,b)) or $(b,D(_:n3,_:n3)). Nulls are numbered \
            deterministically, so names from a previous run of the same \
            command are reproduced.")
  in
  recorded "explain" ~provenance:(Cterm.const true) ~proofs:proofs_term
    ~doc:
      "Chase the program with provenance recording and print the \
       derivation DAG of one fact: which rule produced it, at which round, \
       under which homomorphism, from which parent facts — recursively \
       down to the input."
    Cterm.(
      const (fun fact depth max_atoms _ proofs ->
          Commands.explain ~fact ~depth ~max_atoms ~proofs)
      $ fact_arg $ depth_arg $ max_atoms_arg)

(* rewrite *)

let rewrite_cmd =
  let query_arg =
    path_arg ~docv:"QUERY" [ "q"; "query" ]
      ~doc:"Query to rewrite, e.g. \"?(x,y) E(x,y)\"."
  in
  recorded "rewrite" ~doc:"Compute a UCQ rewriting (backward chaining)."
    Cterm.(
      const (fun rounds query file _ -> Commands.rewrite ~file ~rounds ~query)
      $ rounds_arg $ query_arg)

(* properties *)

let properties_cmd =
  recorded "properties"
    ~doc:"Report syntactic properties and bdd verdicts per atomic query."
    Cterm.(const (fun rounds _ _ -> Commands.properties ~rounds) $ rounds_arg)

(* lint *)

let lint_cmd =
  let run file json select max_warnings list =
    Epilogue.plain (fun () ->
        Commands.lint ~json ~select ~max_warnings ~list file)
  in
  let json_arg =
    flag_arg [ "json" ] ~doc:"Emit the machine-readable JSON report."
  in
  let select_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "select" ] ~docv:"CODES"
          ~doc:
            "Comma-separated diagnostic codes to run (e.g. NCA007,NCA011). \
             Default: all passes.")
  in
  let max_warnings_arg =
    some_count_arg [ "max-warnings" ]
      ~doc:"Fail (exit 1) when more than $(docv) warnings are emitted."
  in
  let list_arg =
    flag_arg [ "list" ] ~doc:"List the available passes and exit."
  in
  let opt_file_arg =
    Arg.value
      (pos_arg 0 ~docv:"FILE"
         ~doc:
           "Program file (facts, rules, queries), or the name of a built-in \
            rule set (see $(b,zoo)). Optional with $(b,--list).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes over the program and report typed \
          NCA0xx diagnostics. Exits non-zero on an error-severity \
          diagnostic, or on more than --max-warnings warnings.")
    Cterm.(
      const run $ opt_file_arg $ json_arg $ select_arg $ max_warnings_arg
      $ list_arg)

(* surgery *)

let surgery_cmd =
  let verify_arg =
    flag_arg [ "verify" ]
      ~doc:"Check chase preservation (Cor. 15, Lemmas 19/24/30) on this input."
  in
  let print_arg = flag_arg [ "print" ] ~doc:"Print the final rule set." in
  let rounds_arg =
    some_count_arg [ "rounds" ]
      ~doc:
        "Budget for the body-rewriting fixpoint (default 12). An exhausted \
         budget is reported as a violated stage invariant."
  in
  recorded "surgery"
    ~doc:"Run the Section-4 regalization pipeline on the rule set."
    Cterm.(
      const (fun verify print max_rounds _ _ ->
          Commands.surgery ~verify ~print ~max_rounds)
      $ verify_arg $ print_arg $ rounds_arg)

(* analyze *)

let analyze_cmd =
  recorded "analyze" ~proofs:proofs_term
    ~doc:"Full Section-5 analysis: witnesses, valleys, tournament bound."
    Cterm.(
      const (fun depth edge _ proofs -> Commands.analyze ~depth ~edge ~proofs)
      $ depth_arg $ edge_arg)

(* tournament *)

let tournament_cmd =
  recorded "tournament" ~proofs:proofs_term
    ~doc:"Measure the largest E-tournament and loop entailment."
    Cterm.(
      const (fun depth max_atoms edge _ proofs ->
          Commands.tournament ~depth ~max_atoms ~edge ~proofs)
      $ depth_arg $ max_atoms_arg $ edge_arg)

(* dot *)

let dot_cmd =
  unrecorded "dot"
    ~doc:
      "Export the chase E-graph as Graphviz DOT, largest tournament \
       highlighted."
    Cterm.(
      const (fun depth edge out file -> Commands.dot ~file ~depth ~edge ~out)
      $ depth_arg $ edge_arg $ out_arg)

(* classes *)

let classes_cmd =
  unrecorded "classes"
    ~doc:
      "Classify the rule set (linear / guarded / sticky / weakly acyclic)."
    (Cterm.const (fun _ -> Commands.classes))

(* classify *)

let classify_cmd =
  let json_arg =
    flag_arg [ "json" ]
      ~doc:
        "Print the report as one line of JSON (schema \
         nocliques/classify/v1) instead of text."
  in
  let depth_arg =
    count_arg [ "d"; "depth" ] 16
      ~doc:"Depth budget for the critical-instance chase (MFA)."
  in
  let max_atoms_arg =
    count_arg [ "max-atoms" ] 10000
      ~doc:"Atom budget for the critical-instance chase (MFA)."
  in
  recorded "classify"
    ~doc:
      "Run the chase-termination hierarchy (Datalog, weak / joint / \
       super-weak acyclicity, MFA over the critical instance) and report \
       the strongest verdict with a checkable certificate. Exits 0 when \
       termination is certified, 1 when the chase provably diverges, 3 \
       when the budget ran out first."
    Cterm.(
      const (fun json depth max_atoms _ _ ->
          Commands.classify ~json ~depth ~max_atoms)
      $ json_arg $ depth_arg $ max_atoms_arg)

(* finite *)

let finite_cmd =
  let fresh_arg = count_arg [ "fresh" ] 2 ~doc:"Extra domain elements." in
  let forbid_arg =
    flag_arg [ "forbid-loop" ]
      ~doc:
        "Only accept models without an E-loop — refuting this shows every \
         finite model has one."
  in
  let engine_arg =
    Arg.(
      value
      & opt (enum [ ("sat", ()) ]) ()
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Accepted for script compatibility and otherwise ignored: the \
             search always grounds into the built-in incremental SAT \
             backend, so $(b,sat) is the only value.")
  in
  let witness_arg =
    path_arg [ "witness-json" ]
      ~doc:
        "Write the found model as a checkable witness (schema \
         nocliques/fm-witness/v1) to $(docv) ($(b,-) for stdout), after \
         the independent checker has re-verified it."
  in
  recorded "finite" ~doc:"Search for a finite model (the finite side of fc)."
    Cterm.(
      const (fun fresh edge forbid_loop () witness _ _ ->
          Commands.finite ~fresh ~edge ~forbid_loop ~witness)
      $ fresh_arg $ edge_arg $ forbid_arg $ engine_arg $ witness_arg)

(* zoo *)

let zoo_cmd =
  let name_arg =
    Arg.value (pos_arg 0 ~docv:"NAME" ~doc:"Entry to dump (omit to list).")
  in
  Cmd.v
    (Cmd.info "zoo" ~doc:"List or dump the built-in rule sets.")
    Cterm.(
      const (fun name -> Epilogue.plain (fun () -> Commands.zoo name))
      $ name_arg)

(* debug *)

let intern_stats_cmd =
  unrecorded "intern-stats"
    ~doc:
      "Load a program and report intern-table statistics (name, symbol and \
       atom counts, max ids, bytes saved by sharing, hash-cons collision \
       depth)."
    (Cterm.const (fun file -> Commands.intern_stats ~file))

let plan_cmd =
  let dot_arg =
    flag_arg [ "dot" ]
      ~doc:"Emit the join graph of each body in DOT instead of text."
  in
  unrecorded "plan"
    ~doc:
      "Print the compiled join plan of every rule body (and query) of a \
       program: slot assignment and, per possible root atom, the static \
       step order with the per-position actions the executor will run."
    Cterm.(const (fun dot _ -> Commands.plan ~dot) $ dot_arg)

let termination_graph_cmd =
  let graph_arg =
    let graphs =
      [ ("positions", `Positions); ("variables", `Variables);
        ("rules", `Rules) ]
    in
    Arg.(
      value
      & opt (enum graphs) `Positions
      & info [ "g"; "graph" ] ~docv:"KIND"
          ~doc:
            "Which termination graph to emit: $(b,positions) (the weak-\
             acyclicity position dependency graph, special edges \
             labelled), $(b,variables) (the joint-acyclicity existential-\
             variable graph), or $(b,rules) (the super-weak-acyclicity \
             trigger graph).")
  in
  unrecorded "termination-graph"
    ~doc:
      "Export the graphs behind the termination classifier as Graphviz DOT."
    Cterm.(
      const (fun graph out _ -> Commands.termination_graph ~graph ~out)
      $ graph_arg $ out_arg)

let debug_cmd =
  Cmd.group
    (Cmd.info "debug" ~doc:"Introspection helpers for the engine internals.")
    [ intern_stats_cmd; plan_cmd; termination_graph_cmd ]

(* The one exit. Statuses: 0 a verdict, 1 a failure, 2 a usage error or
   an unreadable input / unwritable output (cmdliner's own command-line
   errors included), 3 a budget stop before a verdict, 125 an internal
   error (a bug: an exception escaped a command). *)
let () =
  let doc = "the No-Cliques-Allowed toolkit for existential rules" in
  let info = Cmd.info "nocliques" ~version:"1.0.0" ~doc in
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            [ chase_cmd; explain_cmd; rewrite_cmd; properties_cmd; lint_cmd;
              classify_cmd; surgery_cmd; analyze_cmd; tournament_cmd;
              classes_cmd; finite_cmd; dot_cmd; zoo_cmd; debug_cmd ])
     with
    | Ok (`Ok status) -> status
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
