(* Known exact small Ramsey numbers, keyed by the sorted argument list with
   the trivial entries (1 and 2) already removed. *)
let exact_table =
  [
    ([ 3; 3 ], 6);
    ([ 3; 4 ], 9);
    ([ 3; 5 ], 14);
    ([ 3; 6 ], 18);
    ([ 3; 7 ], 23);
    ([ 3; 8 ], 28);
    ([ 3; 9 ], 36);
    ([ 4; 4 ], 18);
    ([ 4; 5 ], 25);
    ([ 3; 3; 3 ], 17);
  ]

(* Bounds grow doubly fast in the number of colors and leave [int] from
   12 fours on, so every sum and product saturates at [max_int]. *)
let sat_add a b = if a > max_int - b then max_int else a + b
let sat_mul c v = if v <> 0 && c > max_int / v then max_int else c * v

(* A key is the multiset of the non-trivial arguments as ascending
   [(size, count)] pairs: the bound is symmetric in its arguments, so
   the [c] recursive calls that decrement one of [c] equal sizes are one
   call times [c], and the memo table holds polynomially many keys. *)
let rec add s = function
  | (s', c) :: rest when s' = s -> (s, c + 1) :: rest
  | ((s', _) as p) :: rest when s' < s -> p :: add s rest
  | key -> (s, 1) :: key

let key_of sizes = List.fold_left (fun key s -> add s key) [] sizes
let sizes_of key = List.concat_map (fun (s, c) -> List.init c (fun _ -> s)) key

(* A single argument is its own bound; no argument left means every
   color was a neutral 2. *)
let classify = function
  | [] -> `Value 2
  | [ (s, 1) ] -> `Value s
  | key -> `Key key

let normalize args =
  List.iter
    (fun s -> if s < 1 then invalid_arg "Ramsey: arguments must be >= 1")
    args;
  if args = [] then invalid_arg "Ramsey: empty argument list";
  (* 1 forces the answer 1; 2 is neutral: a 2-tournament only needs one
     edge, so that color can be dropped. *)
  if List.mem 1 args then `One
  else classify (key_of (List.filter (fun s -> s > 2) args))

(* [key] with one [s] replaced by [s - 1]; a resulting 2 is dropped *)
let decrement key s =
  let key =
    List.filter_map
      (fun (s', c) ->
        if s' <> s then Some (s', c)
        else if c > 1 then Some (s, c - 1)
        else None)
      key
  in
  if s - 1 > 2 then add (s - 1) key else key

let exact key =
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 key in
  if n > 3 then None else List.assoc_opt (sizes_of key) exact_table

let memo : ((int * int) list, int) Hashtbl.t = Hashtbl.create 64

let rec bound_of_key key =
  match Hashtbl.find_opt memo key with
  | Some v -> v
  | None ->
      let v =
        match exact key with
        | Some v -> v
        | None ->
            (* Greenwood–Gleason recursion. *)
            let n = List.fold_left (fun acc (_, c) -> acc + c) 0 key in
            let sum =
              List.fold_left
                (fun acc (s, c) ->
                  sat_add acc (sat_mul c (compute (decrement key s))))
                0 key
            in
            if sum = max_int then max_int else 2 - n + sum
      in
      Hashtbl.add memo key v;
      v

and compute key =
  match classify key with `Value v -> v | `Key key -> bound_of_key key

let upper_bound args =
  match normalize args with
  | `One -> 1
  | `Value v -> v
  | `Key key -> bound_of_key key

(* The all-4 bound is monotone in [colors], so once it saturates every
   larger count does too: stop there instead of recursing over [colors]
   fours. *)
let four_clique_bound ~colors =
  if colors < 1 then invalid_arg "Ramsey.four_clique_bound: colors < 1";
  let rec go k =
    let b = compute [ (4, k) ] in
    if k = colors || b = max_int then b else go (k + 1)
  in
  go 1

let is_exact args =
  match normalize args with
  | `One | `Value _ -> true
  | `Key key -> Option.is_some (exact key)
