(** Global string intern table.

    Maps names to dense integer ids ([0 .. count () - 1]) so that terms
    and symbols can compare, hash and index by id in O(1). Interning is
    idempotent ([intern (name id) = id]) and ids are never recycled.

    The table is deliberately global and append-only: names are created
    once (at parse time or by the fresh-name generator) and compared
    millions of times in the chase and rewriting inner loops, so the
    string itself is only resolved again at pretty-printing time. *)

val intern : string -> int
(** [intern s] returns the id of [s], allocating a fresh one on first
    sight. *)

val name : int -> string
(** [name id] resolves an id back to its string.
    Raises [Invalid_argument] on ids never returned by {!intern}. *)

val known : string -> bool
(** [known s] is true iff [s] has been interned already. *)

val count : unit -> int
(** Number of distinct names interned so far. *)

val live_bytes : unit -> int
(** Total bytes of the distinct interned strings (payload only). *)

val compare_names : int -> int -> int
(** [compare_names a b] orders ids by their underlying strings — the
    pre-interning structural order, used at output boundaries where
    byte-stable ordering matters. O(1) on equal ids. *)

val fresh : ?prefix:string -> unit -> int
(** [fresh ~prefix ()] interns a fresh name [_<prefix><n>] with a
    globally increasing [n] shared across prefixes. Names already
    interned (e.g. by a hostile user program) are skipped, so the
    result is always a name never seen before. *)

val fresh_null_id : unit -> int
(** A globally fresh labelled-null id (independent counter). *)

val is_reserved : string -> bool
(** [is_reserved s] is true when [s] starts with ['_'] — the namespace
    reserved for generated names. The parser rejects such identifiers
    in source programs. *)
