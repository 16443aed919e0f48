type position = { line : int; column : int }

let whole_input = { line = 0; column = 0 }

let pp_position ppf p =
  if p.line = 0 then Fmt.pf ppf "input"
  else Fmt.pf ppf "line %d, column %d" p.line p.column

exception Error of { position : position; message : string }

let error_message position message = Fmt.str "%a: %s" pp_position position message

type token =
  | Ident of string
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Arrow
  | Question
  | Colon
  | Exists
  | Eof

type lexer = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the start of the current line *)
  mutable tok : token;
  mutable tok_pos : position;  (* where the current token starts *)
}

let scan_position lx = { line = lx.line; column = lx.pos - lx.bol + 1 }
let error_at position message = raise (Error { position; message })
let error lx msg = error_at lx.tok_pos msg

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let rec skip_ws lx =
  if lx.pos >= String.length lx.input then ()
  else
    match lx.input.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_ws lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.line <- lx.line + 1;
        lx.bol <- lx.pos;
        skip_ws lx
    | '#' ->
        skip_line lx;
        skip_ws lx
    | '/'
      when lx.pos + 1 < String.length lx.input
           && lx.input.[lx.pos + 1] = '/' ->
        skip_line lx;
        skip_ws lx
    | _ -> ()

and skip_line lx =
  while
    lx.pos < String.length lx.input && lx.input.[lx.pos] <> '\n'
  do
    lx.pos <- lx.pos + 1
  done

let lex_token lx =
  skip_ws lx;
  lx.tok_pos <- scan_position lx;
  if lx.pos >= String.length lx.input then Eof
  else
    let c = lx.input.[lx.pos] in
    if is_ident_start c then begin
      let start = lx.pos in
      while
        lx.pos < String.length lx.input && is_ident_char lx.input.[lx.pos]
      do
        lx.pos <- lx.pos + 1
      done;
      Ident (String.sub lx.input start (lx.pos - start))
    end
    else if
      (* U+2203 '∃' in UTF-8, as [Rule.pp] prints it *)
      c = '\xe2'
      && lx.pos + 2 < String.length lx.input
      && lx.input.[lx.pos + 1] = '\x88'
      && lx.input.[lx.pos + 2] = '\x83'
    then begin
      lx.pos <- lx.pos + 3;
      Exists
    end
    else begin
      lx.pos <- lx.pos + 1;
      match c with
      | '(' -> Lparen
      | ')' -> Rparen
      | ',' -> Comma
      | '.' -> Dot
      | '?' -> Question
      | ':' -> Colon
      | '-' ->
          if
            lx.pos < String.length lx.input && lx.input.[lx.pos] = '>'
          then begin
            lx.pos <- lx.pos + 1;
            Arrow
          end
          else error lx "expected '->'"
      | c -> error lx (Fmt.str "unexpected character %C" c)
    end

let advance lx = lx.tok <- lex_token lx

let make_lexer input =
  let lx =
    { input; pos = 0; line = 1; bol = 0; tok = Eof;
      tok_pos = { line = 1; column = 1 } }
  in
  advance lx;
  lx

let expect lx tok what =
  if lx.tok = tok then advance lx else error lx (Fmt.str "expected %s" what)

(* Arity bookkeeping: a predicate's arity is fixed by its first use.
   Keyed on the interned name id, so the lookup is a pure int-map read. *)
module Name_map = Map.Make (Int)

type env = { mutable arities : Symbol.t Name_map.t }

let symbol ~at env name arity =
  let nid = Names.intern name in
  match Name_map.find_opt nid env.arities with
  | Some p when Symbol.arity p = arity -> p
  | Some p ->
      error_at at
        (Fmt.str "predicate %s used with arities %d and %d" name
           (Symbol.arity p) arity)
  | None ->
      let p = Symbol.make name arity in
      env.arities <- Name_map.add nid p env.arities;
      p

let is_pred_name name = name.[0] >= 'A' && name.[0] <= 'Z'

(* The [_] prefix is reserved for generated names (fresh variables,
   encoding artefacts): a user identifier there could alias a generated
   one mid-pipeline, so source programs must stay out of it. *)
let check_not_reserved lx name =
  if Names.is_reserved name then
    error lx
      (Fmt.str
         "identifier %s is in the reserved '_' namespace (generated names)"
         name)

let parse_term lx ~const =
  match lx.tok with
  | Ident name when not (is_pred_name name) ->
      check_not_reserved lx name;
      advance lx;
      if const then Term.cst name else Term.var name
  | Ident name -> error lx (Fmt.str "expected a term, got predicate %s" name)
  | _ -> error lx "expected a term"

let parse_term_list lx ~const =
  let rec go acc =
    let t = parse_term lx ~const in
    match lx.tok with
    | Comma ->
        advance lx;
        go (t :: acc)
    | _ -> List.rev (t :: acc)
  in
  go []

let parse_atom lx env ~const =
  match lx.tok with
  | Ident name when is_pred_name name ->
      let at = lx.tok_pos in
      advance lx;
      if lx.tok = Lparen then begin
        advance lx;
        let args = parse_term_list lx ~const in
        expect lx Rparen "')'";
        Atom.make (symbol ~at env name (List.length args)) args
      end
      else Atom.make (symbol ~at env name 0) []
  | _ -> error lx "expected an atom"

let parse_atom_list lx env ~const =
  let rec go acc =
    let a = parse_atom lx env ~const in
    match lx.tok with
    | Comma ->
        advance lx;
        go (a :: acc)
    | _ -> List.rev (a :: acc)
  in
  go []

type program = {
  facts : Instance.t;
  rules : Rule.t list;
  queries : Cq.t list;
}

let parse_query_body lx env =
  advance lx (* '?' *);
  let answer =
    if lx.tok = Lparen then begin
      advance lx;
      if lx.tok = Rparen then begin
        advance lx;
        []
      end
      else begin
        let ts = parse_term_list lx ~const:false in
        expect lx Rparen "')'";
        ts
      end
    end
    else []
  in
  let body = parse_atom_list lx env ~const:false in
  Cq.make ~answer body

(* A rule head after the arrow, with an optional "∃v₁,…,vₙ." prefix as
   [Rule.pp] prints it. The prefix only documents the existential
   variables (a head variable absent from the body is existential either
   way), so it is checked against the body and head and then dropped. *)
let parse_head lx env ~body =
  let listed =
    if lx.tok <> Exists then []
    else begin
      advance lx;
      let rec go acc =
        let at = lx.tok_pos in
        let v = parse_term lx ~const:false in
        let acc = (v, at) :: acc in
        if lx.tok = Comma then begin
          advance lx;
          go acc
        end
        else List.rev acc
      in
      let vs = go [] in
      expect lx Dot "'.' after the existential variables";
      vs
    end
  in
  let head = parse_atom_list lx env ~const:false in
  let body_vars = Atom.vars_of_list body in
  let head_vars = Atom.vars_of_list head in
  List.iter
    (fun (v, at) ->
      if Term.Set.mem v body_vars then
        error_at at
          (Fmt.str "existential variable %a occurs in the rule body" Term.pp v)
      else if not (Term.Set.mem v head_vars) then
        error_at at
          (Fmt.str "existential variable %a does not occur in the rule head"
             Term.pp v))
    listed;
  head

(* A statement starting with an identifier: either "name: rule", or a rule /
   fact starting with an atom list. *)
let parse_statement lx env =
  match lx.tok with
  | Question ->
      let q = parse_query_body lx env in
      expect lx Dot "'.'";
      `Query q
  | Ident name when not (is_pred_name name) ->
      (* rule label *)
      check_not_reserved lx name;
      advance lx;
      expect lx Colon "':'";
      let body = parse_atom_list lx env ~const:false in
      expect lx Arrow "'->'";
      let head = parse_head lx env ~body in
      expect lx Dot "'.'";
      `Rule (Rule.make ~name body head)
  | Ident _ ->
      (* Could be facts or an unnamed rule; parse atoms as variables first
         and reinterpret as constants if a '.' follows directly. *)
      let start = (lx.pos, lx.line, lx.bol, lx.tok, lx.tok_pos) in
      let atoms = parse_atom_list lx env ~const:false in
      if lx.tok = Arrow then begin
        advance lx;
        let head = parse_head lx env ~body:atoms in
        expect lx Dot "'.'";
        `Rule (Rule.make atoms head)
      end
      else begin
        (* facts: re-lex from the saved position with constants *)
        let pos, line, bol, tok, tok_pos = start in
        lx.pos <- pos;
        lx.line <- line;
        lx.bol <- bol;
        lx.tok <- tok;
        lx.tok_pos <- tok_pos;
        let atoms = parse_atom_list lx env ~const:true in
        expect lx Dot "'.'";
        `Facts atoms
      end
  | _ -> error lx "expected a statement"

let parse_program input =
  let lx = make_lexer input in
  let env = { arities = Name_map.empty } in
  let rec go facts rules queries =
    match lx.tok with
    | Eof ->
        {
          facts = Instance.of_list (List.rev facts);
          rules = List.rev rules;
          queries = List.rev queries;
        }
    | _ -> (
        match parse_statement lx env with
        | `Facts fs -> go (List.rev_append fs facts) rules queries
        | `Rule r -> go facts (r :: rules) queries
        | `Query q -> go facts rules (q :: queries))
  in
  go [] [] []

let parse_rules input = (parse_program input).rules
let parse_rule input =
  match parse_rules input with
  | [ r ] -> r
  | rs ->
      error_at whole_input
        (Fmt.str "expected one rule, got %d" (List.length rs))

let rule input =
  let input = String.trim input in
  let input =
    if String.length input > 0 && input.[String.length input - 1] = '.' then
      input
    else input ^ "."
  in
  parse_rule input

let instance input =
  let lx = make_lexer input in
  let env = { arities = Name_map.empty } in
  let atoms = parse_atom_list lx env ~const:true in
  if lx.tok = Dot then advance lx;
  if lx.tok <> Eof then error lx "trailing input";
  Instance.of_list atoms

let query input =
  let lx = make_lexer input in
  let env = { arities = Name_map.empty } in
  if lx.tok <> Question then error lx "expected '?'";
  let q = parse_query_body lx env in
  if lx.tok = Dot then advance lx;
  if lx.tok <> Eof then error lx "trailing input";
  q
