(** Typed lint diagnostics.

    Every class-membership question the paper's argument relies on — and
    every structural hazard the engines can run into — is reported as a
    diagnostic: a stable [NCA0xx] code, a severity, a location inside the
    program, a human message, and optionally a machine-checkable
    certificate (e.g. the offending position cycle of a weak-acyclicity
    violation) and a fix hint. PROOF_MAP.md maps each code to the paper
    statement it checks. *)

type severity = Error | Warning | Info

type location =
  | Program  (** the rule set / program as a whole *)
  | Rule_site of { name : string; index : int }
      (** a rule, by name and 0-based position in the program *)
  | Predicate of { name : string; arity : int }
  | Span of { line : int; column : int }  (** a source position (1-based) *)

type t = {
  code : string;  (** stable code, ["NCA001"] … *)
  severity : severity;
  location : location;
  message : string;
  certificate : string option;
      (** evidence, e.g. a position cycle or offending atom positions *)
  hint : string option;  (** a suggested fix *)
}

val make :
  ?certificate:string ->
  ?hint:string ->
  code:string ->
  severity:severity ->
  location:location ->
  string ->
  t

val compare : t -> t -> int
(** Orders by severity (errors first), then code, then location. *)

val pp : t Fmt.t
(** The text renderer:
    [NCA007 warning  rule g (#0): not weakly acyclic …] with indented
    certificate/hint lines. *)

val to_json : t -> Json.t

val of_json : Json.t -> t option
(** Inverse of {!to_json}; [None] on malformed input. The golden tests
    assert the round-trip. *)
