(** Text format for rules, facts and queries.

    Grammar (comments start with [#] or [//] and run to end of line):
    {v
      program   ::= statement*
      statement ::= fact | rule | query
      fact      ::= atoms "."              (identifiers are constants)
      rule      ::= [name ":"] atoms "->" [exists] atoms "."
                                           (identifiers are variables)
      exists    ::= "∃" terms "."
      query     ::= "?" atoms "."          (Boolean)
                  | "?(" terms ")" atoms "."
      atoms     ::= atom ("," atom)*
      atom      ::= PRED [ "(" terms ")" ]
      terms     ::= term ("," term)*
    v}
    Predicate names start with an uppercase letter, terms with a lowercase
    letter, a digit or [_]. The arity of a predicate is inferred from its
    first use and must stay consistent.

    A head variable absent from the body is existential. The optional
    [∃v₁,…,vₙ.] prefix names such variables explicitly, as
    {!Rule.pp} prints rules, so a [nocliques zoo NAME] dump parses back;
    a listed variable that occurs in the body or is missing from the
    head is an {!Error}. *)

type program = {
  facts : Instance.t;
  rules : Rule.t list;
  queries : Cq.t list;
}

type position = { line : int; column : int }
(** 1-based source position. The sentinel {!whole_input} (line 0) marks
    errors about the input as a whole rather than a specific span. *)

val whole_input : position

val pp_position : position Fmt.t
(** Prints ["line L, column C"], or ["input"] for {!whole_input}. *)

exception Error of { position : position; message : string }
(** Raised on lexical, syntactic or arity errors. [position] is the start
    of the offending token, so downstream diagnostics can carry spans. *)

val error_message : position -> string -> string
(** ["line L, column C: message"] — the rendering used by the CLI. *)

val parse_program : string -> program
val parse_rules : string -> Rule.t list
val parse_rule : string -> Rule.t

val rule : string -> Rule.t
(** Inline single-rule parser (no trailing dot required) — convenient for
    building rule sets in code and tests. *)

val instance : string -> Instance.t
(** Inline facts parser: comma-separated atoms, identifiers as constants. *)

val query : string -> Cq.t
(** Inline query parser. *)
