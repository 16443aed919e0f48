(** The bodies of the [nocliques] subcommands.

    Each takes its options as labelled, typed arguments and its input,
    prints its report on stdout (diagnostics on stderr) and returns an
    {!Epilogue.outcome}; {!Epilogue.run} turns that into files and an
    exit status. A command that ends in [Budget.t -> outcome] validates
    its arguments when applied to the program, before recording starts,
    and runs its engines under the budget it is then given. *)

open Nca_logic

val chase :
  depth:int ->
  max_atoms:int ->
  print:bool ->
  explain:bool ->
  explain_nulls:bool ->
  proofs:Epilogue.proofs ->
  Parser.program ->
  Nca_obs.Budget.t ->
  Epilogue.outcome
(** The oblivious chase, the program's queries over it, and the
    derivation of the deepest derived fact ([explain], needs provenance
    recording) or invented term ([explain_nulls]). *)

val explain :
  fact:string ->
  depth:int ->
  max_atoms:int ->
  proofs:Epilogue.proofs ->
  Parser.program ->
  Nca_obs.Budget.t ->
  Epilogue.outcome
(** The derivation DAG of [fact], as the chase prints it (nulls as
    [_:n<k>]); needs provenance recording. Raises {!Epilogue.Usage} on
    a malformed [fact], and on one whose predicate the program uses
    only at other arities. *)

val rewrite :
  file:string ->
  rounds:int ->
  query:string option ->
  Parser.program ->
  Nca_obs.Budget.t ->
  Epilogue.outcome
(** The UCQ rewriting of [query], else of the program's first query
    ([file] names the program in the diagnostic when it has none). *)

val properties :
  rounds:int -> Parser.program -> Nca_obs.Budget.t -> Epilogue.outcome
(** The syntactic report and a bdd verdict per atomic query. *)

val lint :
  json:bool ->
  select:string list option ->
  max_warnings:int option ->
  list:bool ->
  string option ->
  Epilogue.outcome
(** The NCA0xx diagnostics of a program file or built-in rule set, or
    the pass list ([list]). *)

val surgery :
  verify:bool ->
  print:bool ->
  max_rounds:int option ->
  Parser.program ->
  Nca_obs.Budget.t ->
  Epilogue.outcome
(** The Section-4 regalization pipeline. *)

val analyze :
  depth:int ->
  edge:string ->
  proofs:Epilogue.proofs ->
  Parser.program ->
  Nca_obs.Budget.t ->
  Epilogue.outcome
(** The Section-5 analysis: witnesses, valleys, the tournament bound;
    the proof artefacts carry the checked certificate. *)

val tournament :
  depth:int ->
  max_atoms:int ->
  edge:string ->
  proofs:Epilogue.proofs ->
  Parser.program ->
  Nca_obs.Budget.t ->
  Epilogue.outcome
(** The Theorem-1 verdict; the proof artefacts carry the checked
    certificate. *)

val dot :
  file:string ->
  depth:int ->
  edge:string ->
  out:string option ->
  Parser.program ->
  Epilogue.outcome
(** The chase's [edge]-graph as DOT, largest tournament highlighted, to
    [out] or stdout. *)

val classes : Parser.program -> Epilogue.outcome
(** The syntactic classes and weak acyclicity. *)

val classify :
  json:bool ->
  depth:int ->
  max_atoms:int ->
  Parser.program ->
  Nca_obs.Budget.t ->
  Epilogue.outcome
(** The chase-termination verdict, re-checked: 0 terminating, 1
    diverging or a rejected certificate, 3 inconclusive. *)

val finite :
  fresh:int ->
  edge:string ->
  forbid_loop:bool ->
  witness:string option ->
  Parser.program ->
  Nca_obs.Budget.t ->
  Epilogue.outcome
(** The bounded finite-model search; a model is re-checked before it is
    printed or written as a [nocliques/fm-witness/v1] witness. *)

val zoo : string option -> Epilogue.outcome
(** The list of built-in rule sets, or one dumped as a program. Raises
    {!Epilogue.Usage} on an unknown name. *)

val intern_stats : file:string -> Parser.program -> Epilogue.outcome
(** The intern-table statistics after loading [file]. *)

val plan : dot:bool -> Parser.program -> Epilogue.outcome
(** The compiled join plan of every rule body and query. *)

val termination_graph :
  graph:[ `Positions | `Variables | `Rules ] ->
  out:string option ->
  Parser.program ->
  Epilogue.outcome
(** One graph behind the termination classifier as DOT, to [out] or
    stdout. *)
