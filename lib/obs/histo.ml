(* 64 fixed int buckets (bucket = bit width of the value), so [observe]
   is a few ALU ops and one array bump — no allocation, no comparison
   sort. Percentile extraction walks the buckets and reports the
   bucket's upper bound clamped to the observed max: exact up to log₂
   resolution, which is all a latency profile needs. *)

type t = {
  buckets : int array; (* 64 *)
  mutable count : int;
  mutable sum : int;
  mutable max : int;
}

let create () = { buckets = Array.make 64 0; count = 0; sum = 0; max = 0 }

let bucket_of v =
  if v <= 0 then 0
  else
    (* number of significant bits: v in [2^(b-1), 2^b - 1] -> b *)
    let rec bits b v = if v = 0 then b else bits (b + 1) (v lsr 1) in
    bits 0 v

let bucket_upper b = if b <= 0 then 0 else (1 lsl b) - 1

let observe h v =
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum + max 0 v;
  if v > h.max then h.max <- v

let count h = h.count
let sum h = h.sum
let max_value h = h.max

let percentile h p =
  if h.count = 0 then 0
  else begin
    let p = Stdlib.max 1 (Stdlib.min 100 p) in
    (* rank = ceil (p/100 * count), 1-based *)
    let rank = ((p * h.count) + 99) / 100 in
    let b = ref 0 and seen = ref 0 in
    (try
       for i = 0 to 63 do
         seen := !seen + h.buckets.(i);
         if !seen >= rank then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    Stdlib.min (bucket_upper !b) h.max
  end

let copy h =
  { buckets = Array.copy h.buckets; count = h.count; sum = h.sum; max = h.max }

let scrub h =
  let z = create () in
  z.buckets.(0) <- h.count;
  z.count <- h.count;
  z

type summary = {
  count : int;
  sum : int;
  max : int;
  p50 : int;
  p90 : int;
  p99 : int;
}

let summary (h : t) : summary =
  {
    count = h.count;
    sum = h.sum;
    max = h.max;
    p50 = percentile h 50;
    p90 = percentile h 90;
    p99 = percentile h 99;
  }
