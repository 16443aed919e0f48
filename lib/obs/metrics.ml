(* Histograms are 64 fixed int buckets (bucket = bit width of the
   value), so [observe] is a few ALU ops and one array bump — no
   allocation, no comparison sort. Percentile extraction walks the
   buckets and reports the bucket's upper bound clamped to the observed
   max: exact up to log₂ resolution, which is all a latency profile
   needs. *)

module Histo = struct
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
end

(* -- the ambient store ----------------------------------------------- *)

type gauge = { mutable last : int; mutable gmax : int }

type store = {
  histos : (string, Histo.t) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
}

let fresh () = { histos = Hashtbl.create 16; gauges = Hashtbl.create 16 }

let current : store option ref = ref None
let enabled () = Option.is_some !current
let enable () = current := Some (fresh ())
let disable () = current := None

let histo s name =
  match Hashtbl.find_opt s.histos name with
  | Some h -> h
  | None ->
      let h = Histo.create () in
      Hashtbl.add s.histos name h;
      h

let observe name v =
  match !current with None -> () | Some s -> Histo.observe (histo s name) v

let gauge name v =
  match !current with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.gauges name with
      | Some g ->
          g.last <- v;
          if v > g.gmax then g.gmax <- v
      | None -> Hashtbl.add s.gauges name { last = v; gmax = v })

(* -- memory samplers ----------------------------------------------- *)

let samplers : (string * (unit -> int)) list ref = ref []

let register_sampler name probe =
  samplers := (name, probe) :: List.remove_assoc name !samplers

let sample_memory () =
  if enabled () then begin
    let st = Gc.quick_stat () in
    gauge "gc.minor_words" (int_of_float st.Gc.minor_words);
    gauge "gc.major_words" (int_of_float st.Gc.major_words);
    gauge "gc.heap_words" st.Gc.heap_words;
    List.iter (fun (name, probe) -> gauge name (probe ())) !samplers
  end

type snapshot = {
  histos : (string * Histo.t) list;
  gauges : (string * (int * int)) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  match !current with
  | None -> { histos = []; gauges = [] }
  | Some s ->
      {
        histos =
          Hashtbl.fold (fun k h acc -> (k, Histo.copy h) :: acc) s.histos []
          |> List.sort by_name;
        gauges =
          Hashtbl.fold (fun k g acc -> (k, (g.last, g.gmax)) :: acc) s.gauges []
          |> List.sort by_name;
      }

(* Bucket placement of a latency is timing-dependent, so scrubbing
   collapses every histogram to [count] observations of 0 and zeroes
   the gauges: what survives is exactly the deterministic part. *)
let scrub snap =
  {
    histos =
      List.map
        (fun (k, h) ->
          let z = Histo.create () in
          z.Histo.buckets.(0) <- Histo.count h;
          z.Histo.count <- Histo.count h;
          (k, z))
        snap.histos;
    gauges = List.map (fun (k, _) -> (k, (0, 0))) snap.gauges;
  }
