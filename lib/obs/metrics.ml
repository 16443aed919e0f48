module Histo = Histo

type snapshot = Telemetry.metrics = {
  histos : (string * Histo.t) list;
  gauges : (string * (int * int)) list;
}

(* pinned by perfbench/driver; these go with the next benchmark change *)
let register_sampler = Telemetry.register_sampler
let enable () = if not (Telemetry.enabled ()) then Telemetry.enable ()
let snapshot () = (Telemetry.snapshot ()).metrics
let disable () = ()
