(** Machine-readable rendering of telemetry snapshots.

    Bridges [Nca_obs.Telemetry] to the toolkit's JSON document type —
    the payload behind [nocliques --stats-json]. The shape is versioned
    ([nocliques/stats/v6]) and covered by a golden test, so consumers
    can rely on it:

    {v
    { "schema": "nocliques/stats/v6",
      "counters": { "chase.rounds": 3, ... },
      "plan": { "enabled": true, "plans": 4, ... },
      "sat": { "solves": 0, "vars": 0, ... },
      "parallel": { "jobs": 1, "batches": 0, "domains": [] },
      "provenance": { "facts": 0, "store_bytes": 0, "max_depth": 0 },
      "histograms": { "chase.round_us": { "count": 3, "sum": 812,
                      "max": 402, "p50": 255, "p90": 511, "p99": 511 },
                      ... },
      "memory": { "gc.major_words": { "last": 211084, "max": 211084 },
                  ... },
      "spans": [ { "name": "chase", "calls": 1, "time_us": 42,
                   "children": [...] }, ... ] }
    v}

    [v2] added the [provenance] object — the ambient
    {!Nca_provenance.Provenance} store's counters (all zero when
    recording is off); [store_bytes] is the store's deterministic
    structural size estimate, not a heap measurement. [v3] added the
    [plan] object. [v4] added the [parallel] object, the accounting of
    a worker pool that has since been removed: the engine is
    sequential, so the block is always the constant
    [{jobs: 1, batches: 0, domains: []}], kept so the schema stays
    unchanged.
    [v5] adds the [sat] object: the {!Nca_sat.Stats} process-wide
    solver totals of the SAT-backed finite-model engine (all zero when
    the engine did not run). [v6] adds the [histograms] object (one
    entry per {!Nca_obs.Metrics.Histo} — log₂-bucketed, so [p50]/
    [p90]/[p99] are bucket upper bounds clamped to the observed max)
    and the [memory] object (gauges sampled at span exits:
    GC words plus whatever probes the CLI registered —
    interned-name bytes, hash-cons occupancy). Both are [{}] when
    recording was off. *)

val schema : string
(** ["nocliques/stats/v6"]. *)

val of_snapshot :
  ?metrics:Nca_obs.Metrics.snapshot -> Nca_obs.Telemetry.snapshot -> Json.t
(** Counters as one object (sorted by name, as in the snapshot), the
    plan-cache and provenance counters read off the ambient stores, the
    constant [parallel] block, spans as a recursive array in
    first-seen order, histograms and gauges from [?metrics], which
    defaults to the snapshot's own [metrics]. ([perfbench/driver]
    passes [~metrics]; the argument goes with the next benchmark
    change.) *)
