(** The lint pass registry.

    Each pass answers one class-membership or hygiene question about a
    parsed program and reports its findings as typed diagnostics. The
    passes deepen machinery that already exists across the layers:

    - [NCA002] arity drift (logic layer — same name, different arities)
    - [NCA003] unsafe/existential head variables (logic layer, §2.1)
    - [NCA004] dead rules via predicate-dependency reachability
    - [NCA005] derived-but-unused predicates
    - [NCA006] rule shadowing via CQ containment ({!Nca_logic.Cq.subsumes})
    - [NCA007] weak acyclicity, with the
      {!Nca_chase.Acyclicity.offending_cycle} certificate
    - [NCA008] forward-existentiality with offending atom positions
      (Def. 21, surgery layer)
    - [NCA009] predicate-uniqueness (Def. 22, surgery layer)
    - [NCA010] existential-cascade / non-termination risk
    - [NCA011] trivial loops [P(x,x)] (Def. 10)
    - [NCA012] non-binary signature (needs reification, §4.2)
    - [NCA014] joint acyclicity, with the existential-variable cycle
    - [NCA015] super-weak acyclicity, with the trigger-graph cycle
    - [NCA016] MFA over the critical instance (cyclic term / exhausted)
    - [NCA017] provable non-termination, with a pumping witness
    - [NCA018] termination certified, naming the strongest criterion
    - [NCA019] duplicate rule labels

    [NCA014]–[NCA018] all consult {!Termination.classify_cached}, so
    the budgeted critical-instance chase runs once per lint invocation.
    When the classifier certifies termination, [NCA007] and [NCA014]/
    [NCA015] downgrade to [Info] and [NCA010] stays silent.

    Codes [NCA001] (parse error) and [NCA013] (pipeline invariant) are
    emitted by {!Lint}, not by a registry pass. *)

open Nca_logic

type t = {
  code : string;  (** stable [NCA0xx] code *)
  slug : string;  (** kebab-case pass name *)
  doc : string;  (** one-line description *)
  run : Parser.program -> Diagnostic.t list;
}

val registry : t list
(** All passes, in code order. *)

val find : string -> t option
(** Lookup by code. *)
