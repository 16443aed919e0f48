#!/usr/bin/env python3
"""perfbench: the benchmark of record for the nocliques toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each task is one fresh process of the real `nocliques` binary (or of
examples/valley_analysis.exe), started one at a time in a closed loop
from this single parent. Children run with `--jobs 1` and a pinned
environment. The parent checks every task's stdout against the known
answers in perfbench/expected.json.

`--trace 0` prints the end-to-end metrics: the timed loop runs whole
passes over the workload's task list (order shuffled by the seed) until
`--seconds` have elapsed. Each task's time is its fastest execution in
the loop; wall_s is the sum of those times (one pass), task_ms.p50/p90
are percentiles of them over the workload's tasks.

`--trace 1` prints the per-layer metrics. Per task it runs the CLI, the
untraced driver (perfbench/driver) and the traced driver, each in a
fresh process, and asserts that all three print the same stdout. The
driver makes the same library calls as the subcommand and records one
span per call; layers nested inside a call come from replay probes that
must reproduce the call's result. Counters come from one extra untimed
`--stats-json` invocation per task. Per-layer times are per-pass totals
of span self time (median over passes); counts are per-pass totals.

`--smoke` runs every workload once in both modes and asserts that every
metric of BENCHMARK.json is printed with its unit and that
trace.coverage >= 0.9.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLI = os.path.join("_build", "default", "bin", "nocliques.exe")
VALLEY = os.path.join("_build", "default", "examples", "valley_analysis.exe")
DRIVER = os.path.join("_build", "default", "perfbench", "driver", "driver.exe")
WORK = ".perfbench-work"
SOURCES = [
    "dune-project",
    "bin/nocliques.ml",
    "examples/valley_analysis.ml",
    "perfbench/driver/driver.ml",
]
# Variables that silently change what a child runs: the planner switch and
# the job count swap engines, OCAMLRUNPARAM changes the GC, and time
# scrubbing zeroes the stats timings.
PINNED_OUT = ["OCAMLRUNPARAM", "NOCLIQUES_JOBS", "NOCLIQUES_NO_PLANNER",
              "NOCLIQUES_SCRUB_TIMES"]
RANDOM_SETS = 40
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 120
ZOO = ["example1", "example1_bdd", "short_only", "succ_only", "dense",
       "inclusion", "person_knows", "symmetric", "fork", "backward", "tangle",
       "ternary", "all_pairs", "guarded", "sticky", "ucq_defined",
       "bidirectional", "two_cycles", "datalog_star"]
PROGRAMS = ["cascade.nca", "clean.nca", "ja_demo.nca", "mirror.nca"]

THEOREM1_TASKS = ["example1_d32", "example1_bdd_d7", "bidirectional_d12",
                  "all_pairs_d80"]
FINITE_TASKS = ["example1_f8", "example1_f9", "example1_bdd_f14",
                "finite_succ_only", "finite_dense", "finite_tangle",
                "finite_ucq_defined"]

# span name -> metric stem; each stem gives <stem>ms and <stem>alloc_mw
SPAN_METRICS = {
    "parser": "parser.", "chase.enum": "chase.enum_", "chase": "chase.merge_",
    "graph.build": "graph.build_", "tournament": "tournament.",
    "loop": "loop.", "datalog": "datalog.", "rewrite": "rewrite.",
    "bdd": "bdd.", "injective": "injective.",
    "surgery.regalize": "surgery.regalize_",
    "surgery.verify": "surgery.verify_",
    "witness.analyze": "witness.analyze_", "witness.valley": "witness.valley_",
    "certificate.build": "certificate.build_",
    "certificate.check": "certificate.check_", "classify": "classify.",
    "classify.check": "classify.check_", "lint": "lint.",
    "fm.search": "fm.search_", "sat.ground": "sat.ground_",
    "sat.solve": "sat.solve_", "fm_check": "fm_check.",
}


def per_layer_metrics():
    out = [("cli.startup_ms", "ms"), ("cli.outside_ms", "ms"),
           ("chase.ms", "ms"), ("chase.alloc_mw", "mw")]
    for stem in SPAN_METRICS.values():
        out += [(stem + "ms", "ms"), (stem + "alloc_mw", "mw")]
    out += [(n, "count") for n in [
        "atoms.created", "chase.rounds", "chase.triggers", "chase.new_atoms",
        "plan.compiles", "plan.probes", "tournament.size", "datalog.rounds",
        "rewrite.generated", "injective.disjuncts", "surgery.rules_out",
        "witness.edges", "provenance.facts", "sat.clauses", "sat.decisions",
        "sat.conflicts", "gc.major_collections"]]
    out += [("names.live_bytes", "bytes"), ("provenance.store_bytes", "bytes")]
    out += [(n, "ratio") for n in [
        "chase.useful_ratio", "chase.enum_share", "plan.cache_hit_ratio",
        "plan.matches_per_probe", "rewrite.kept_ratio",
        "sat.conflicts_per_decision", "trace.overhead_ratio",
        "trace.coverage"]]
    out += [("chase.enum_share." + t, "ratio") for t in THEOREM1_TASKS]
    out += [("sat.ground_ms." + t, "ms") for t in FINITE_TASKS]
    out += [("sat.solve_ms." + t, "ms") for t in FINITE_TASKS]
    return out


PER_LAYER = per_layer_metrics()


class Task:
    """One CLI invocation: `args` are the nocliques arguments, or
    ["valley"] for examples/valley_analysis.exe."""

    def __init__(self, tid, kind, args, subject):
        self.tid = tid
        self.kind = kind
        self.args = args
        self.subject = subject

    def cli_argv(self):
        if self.kind == "valley":
            return [VALLEY]
        return [CLI] + self.args

    def stats_argv(self):
        if self.kind == "valley":
            return [DRIVER, "run", "--stats-json", "--", "valley"]
        if self.kind == "lint":
            return None
        return [CLI] + self.args + ["--stats-json"]

    def driver_argv(self, trace):
        return [DRIVER, "run", "--trace", "1" if trace else "0",
                "--task-id", self.tid, "--"] + self.args


def workload_tasks(name, work):
    tasks = []
    if name == "theorem1_section5":
        # both sides of BDD/FC: the chase (tournament, loop) and the
        # solver- and grounding-bound loop-free finite-model searches
        for subject, depth in [("example1", 32), ("example1_bdd", 7),
                               ("bidirectional", 12), ("all_pairs", 80)]:
            tasks.append(Task("%s_d%d" % (subject, depth), "tournament",
                              ["tournament", subject, "-d", str(depth),
                               "--jobs", "1"], subject))
        for subject, fresh in [("example1", 8), ("example1", 9),
                               ("example1_bdd", 14)]:
            tasks.append(finite_task("%s_f%d" % (subject, fresh), subject,
                                     ["--fresh", str(fresh)]))
        # the Section-5 walkthrough: rewriting, surgery, witnesses,
        # provenance and certificates
        tasks.append(Task("valley", "valley", ["valley"], "example1_bdd"))
        for subject in ["example1_bdd", "dense", "ternary"]:
            tasks.append(Task("surgery_" + subject, "surgery",
                              ["surgery", subject, "--verify", "--jobs", "1"],
                              subject))
        for subject in ["tangle", "succ_only", "dense"]:
            proof = os.path.join(work, "proof_%s.json" % subject)
            tasks.append(Task("analyze_" + subject, "analyze",
                              ["analyze", subject, "-d", "4", "--proof-json",
                               proof, "--jobs", "1"], subject))
        for subject in ["example1", "guarded"]:
            tasks.append(Task("properties_" + subject, "properties",
                              ["properties", subject, "--jobs", "1"],
                              subject))
    elif name == "zoo_sweep":
        inputs = [(z, z) for z in ZOO]
        inputs += [(os.path.join("examples", "programs", p), p)
                   for p in PROGRAMS]
        inputs += [(os.path.join(work, "rnd%02d.nca" % i), "random")
                   for i in range(RANDOM_SETS)]
        for path, subject in inputs:
            label = os.path.basename(path)
            tasks.append(Task("lint_" + label, "lint", ["lint", path],
                              subject))
            for cmd in ["classify", "properties", "tournament"]:
                tasks.append(Task(cmd + "_" + label, cmd,
                                  [cmd, path, "--jobs", "1"], subject))
        for subject in ["succ_only", "dense", "tangle", "ucq_defined"]:
            tasks.append(finite_task("finite_" + subject, subject, []))
    return tasks


def finite_task(tid, subject, extra):
    return Task(tid, "finite", ["finite", subject, "--engine", "sat",
                                "--forbid-loop"] + extra + ["--jobs", "1"],
                subject)


WORKLOADS = ["theorem1_section5", "zoo_sweep"]

# verdict checks


def grab(pattern, text):
    m = re.search(pattern, text, re.M)
    return m.groups() if m else None


def judge(task, rc, out, err, expected):
    """Return (ok, decided, reason) for one finished task."""
    allowed = {"lint": {0, 1}, "classify": {0, 1, 3}, "valley": {0}}
    if rc not in allowed.get(task.kind, {0, 3}):
        return False, False, "exit code %d" % rc
    if "rejected" in err:
        return False, False, "certificate/witness rejected"
    decided = rc != 3 and "no fixpoint within budget" not in out
    kind, subject = task.kind, task.subject
    problem = None
    if kind == "tournament":
        v = grab(r"^depth=\d+ atoms=\d+ max-tournament=\d+ "
                 r"loop=(true|false)(?:@(\d+))?", out)
        shadow = grab(r"^Theorem 1 shadow \(threshold 4\): (true|false)$", out)
        want = expected["tournament"].get(subject, {})
        bdd = expected["bdd_expected"].get(subject)
        if v is None or shadow is None:
            problem = "no verdict line"
        elif "loop" in want and (v[0] == "true") != want["loop"]:
            problem = "loop=%s" % v[0]
        elif "loop_level" in want and v[1] != str(want["loop_level"]):
            problem = "loop level %s" % v[1]
        elif bdd is True and shadow[0] != "true":
            problem = "Theorem 1 shadow false on a bdd set"
    elif kind == "properties":
        cert = grab(r"^bdd certified \(all atomic queries\): (true|false)$",
                    out)
        want = (expected["random_linear_bdd"]["value"] if subject == "random"
                else expected["bdd_expected"].get(subject))
        if cert is None:
            problem = "no certification line"
        elif want is not None and (cert[0] == "true") != want:
            # a missing fixpoint is undecided, never wrong
            if not (want and not decided):
                problem = "bdd certified %s, expected %s" % (cert[0], want)
    elif kind == "analyze":
        want = expected["analyze"][subject]
        ucq = grab(r"^\|Q_⊠\| = (\d+)", out)
        edges = grab(r"^E-edges in Ch\(Ch\(R∃\),R_DL\): (\d+)$", out)
        trn = grab(r"^max tournament=(\d+) loop=(true|false) ", out)
        if None in (ucq, edges, trn):
            problem = "missing analysis lines"
        elif (int(ucq[0]), int(edges[0]), int(trn[0]), trn[1] == "true") != (
                want["ucq"], want["edges"], want["max_tournament"],
                want["loop"]):
            problem = "analysis %s/%s/%s/%s" % (ucq[0], edges[0], *trn)
        elif "NO valley witness" in out:
            problem = "edge without valley witness"
    elif kind == "surgery":
        rows = re.findall(r"^chase preserved after \S+\s+(true|false)$", out,
                          re.M)
        want = expected["surgery_verify"]
        if len(rows) != want["rows"] or any(r != "true" for r in rows):
            problem = "chase preservation rows %s" % rows
    elif kind == "finite":
        want = expected["finite"][subject]
        got = ("model" if out.startswith("finite model (") else
               "no_model" if out.startswith("no such finite model") else
               "none")
        if decided and got != want:
            problem = "finite: %s, expected %s" % (got, want)
        elif got == "model" and "Loop_E holds in it: false" not in out:
            problem = "model has a loop"
    elif kind == "valley":
        want = expected["valley"]
        head = grab(r"E-edges=(\d+), Q_inj size=(\d+)", out)
        tail = grab(r"^max tournament in full: (\d+); loop: (true|false)$",
                    out)
        if head is None or tail is None or (
                int(head[0]), int(head[1]), int(tail[0]),
                tail[1] == "true") != (want["edges"], want["q_inj"],
                                       want["max_tournament"], want["loop"]):
            problem = "valley analysis %s %s" % (head, tail)
    elif kind == "lint":
        want = expected["lint_summary"].get(subject)
        last = out.rstrip("\n").split("\n")[-1]
        if "NCA001" in out:
            problem = "parse error"
        elif want is not None and last != want:
            problem = "lint summary %r" % last
    elif kind == "classify":
        want = expected["classify_verdict"].get(subject)
        if want is not None and want not in out.split("\n"):
            problem = "classify verdict differs from golden"
    if problem:
        return False, decided, problem
    return True, decided, None


# processes


def child_env():
    env = dict(os.environ)
    for var in PINNED_OUT:
        env.pop(var, None)
    return env


ENV = child_env()


def spawn(argv):
    """Run one child to completion; returns (rc, stdout, stderr, seconds)."""
    start = time.perf_counter()
    try:
        p = subprocess.run(argv, capture_output=True, text=True, env=ENV,
                           timeout=CHILD_TIMEOUT_S)
        rc, out, err = p.returncode, p.stdout, p.stderr
    except subprocess.TimeoutExpired:
        rc, out, err = -9, "", "timeout"
    return rc, out, err, time.perf_counter() - start


def split_driver(out):
    """Task stdout and the driver's record (its last line)."""
    body, sep, record = out.rpartition("#perfbench ")
    return (body, json.loads(record)) if sep else (out, None)


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        sys.stderr.write("perfbench: not a nocliques checkout (missing %s)\n"
                         % ", ".join(missing))
        sys.exit(2)
    p = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                        CLI.split(os.sep, 2)[2], VALLEY.split(os.sep, 2)[2],
                        DRIVER.split(os.sep, 2)[2]],
                       capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + p.stderr[-4000:])
        sys.exit(2)


def setup(seed):
    """Generate the seeded inputs, write them as .nca files and warm the
    binaries once; returns (work dir, seconds)."""
    start = time.perf_counter()
    work = os.path.join(WORK, "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    rc, _, err, _ = spawn([DRIVER, "gen", "--seed", str(seed), "--count",
                           str(RANDOM_SETS), "--out", work])
    if rc != 0:
        sys.stderr.write("perfbench: input generation failed: %s\n" % err)
        sys.exit(2)
    rc, _, err, _ = spawn([CLI, "--version"])
    if rc != 0:
        sys.stderr.write("perfbench: %s --version failed: %s\n" % (CLI, err))
        sys.exit(2)
    with open(VALLEY, "rb") as f:
        f.read()
    return work, time.perf_counter() - start


def host_block():
    def cmd(argv):
        try:
            p = subprocess.run(argv, capture_output=True, text=True,
                               timeout=30)
            return p.stdout.strip() if p.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None
    return {"nproc": os.cpu_count(),
            "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"])
            or cmd(["ocamlopt", "-version"]),
            "git": cmd(["git", "describe", "--always", "--dirty", "--tags"])
            or "not a git checkout",
            "pinned_env_cleared": PINNED_OUT}


# end-to-end run


def run_untraced(name, seed, seconds, expected):
    setups = []
    for _ in range(SETUP_REPEATS):
        work, took = setup(seed)
        setups.append(took)
    tasks = workload_tasks(name, work)
    rng = random.Random(seed)
    samples = {task.tid: [] for task in tasks}
    passes = attempted = failed = decided = 0
    deadline = time.perf_counter() + seconds
    outputs = {}
    while True:
        order = tasks[:]
        rng.shuffle(order)
        for task in order:
            rc, out, err, took = spawn(task.cli_argv())
            samples[task.tid].append(took * 1000)
            ok, dec, why = judge(task, rc, out, err, expected)
            attempted += 1
            decided += dec
            if not ok:
                failed += 1
                sys.stderr.write("FAIL %s: %s\n" % (task.tid, why))
            outputs[task.tid] = (rc, out)
        passes += 1
        if time.perf_counter() >= deadline:
            break
    # peak heap: the untraced driver, once per task, in fresh processes;
    # it must also print what the CLI printed
    peak_words = 0
    for task in tasks:
        rc, out, err, _ = spawn(task.driver_argv(False))
        body, rec = split_driver(out)
        if rec is None or (rc, body) != outputs[task.tid]:
            failed += 1
            sys.stderr.write("FAIL %s: driver differs from CLI %s\n"
                             % (task.tid, err.strip()))
            continue
        peak_words = max(peak_words, rec["top_heap_words"])
    # On a shared host each core runs the same code up to 50% slower from
    # one second to the next (user time moves with wall time; steal stays
    # near zero). Noise only ever adds time, so each task's fastest
    # run in the timed loop is its cost; the percentiles are over tasks,
    # each counted once, and wall_s is one pass at those costs.
    best = sorted(min(v) for v in samples.values())
    metrics = {
        "wall_s": (sum(best) / 1000, "s"),
        "task_ms.p50": (statistics.median(best), "ms"),
        "task_ms.p90": (statistics.quantiles(best, n=10,
                                             method="inclusive")[8]
                        if len(best) > 1 else best[0], "ms"),
        "peak_heap_mb": (peak_words * 8 / 2**20, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "decided_ratio": (decided / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    sys.stderr.write("%s: %d passes, %d task samples\n"
                     % (name, passes, attempted))
    return attempted, failed, metrics


# traced run


def self_times(spans):
    """Per span id: (duration us, self us, self words)."""
    dur = {s[0]: s[4] - s[3] for s in spans}
    words = {s[0]: s[5] for s in spans}
    child_dur, child_words = {}, {}
    for s in spans:
        child_dur[s[2]] = child_dur.get(s[2], 0) + dur[s[0]]
        child_words[s[2]] = child_words.get(s[2], 0) + words[s[0]]
    return {s[0]: (dur[s[0]],
                   max(0, dur[s[0]] - child_dur.get(s[0], 0)),
                   max(0, words[s[0]] - child_words.get(s[0], 0)))
            for s in spans}


def layer_pass(records):
    """Per-pass per-layer times from the traced records of one pass."""
    acc = {}

    def add(key, v):
        acc[key] = acc.get(key, 0.0) + v

    root_total = attributed = 0
    for tid, rec in records:
        spans = rec["spans"]
        times = self_times(spans)
        task_chase = task_enum = 0
        ground = solve = 0
        for s in spans:
            sid, name = s[0], s[1]
            total, own, own_words = times[sid]
            if sid == 0:
                root_total += total
                attributed += total - own
                continue
            stem = SPAN_METRICS.get(name)
            if stem:
                add(stem + "ms", own / 1000)
                add(stem + "alloc_mw", own_words / 1e6)
            if name == "chase":
                add("chase.ms", total / 1000)
                add("chase.alloc_mw", s[5] / 1e6)
                task_chase += total
            elif name == "chase.enum":
                task_enum += own
            elif name == "sat.ground":
                ground += own
            elif name == "sat.solve":
                solve += own
        if tid in THEOREM1_TASKS and task_chase > 0:
            acc["chase.enum_share." + tid] = task_enum / task_chase
        if tid in FINITE_TASKS:
            add("sat.ground_ms." + tid, ground / 1000)
            add("sat.solve_ms." + tid, solve / 1000)
    acc["trace.coverage"] = attributed / root_total if root_total else 0.0
    return acc


def run_traced(name, seed, seconds, expected):
    work, _ = setup(seed)
    tasks = workload_tasks(name, work)
    rng = random.Random(seed)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds

    def fail(task, why):
        nonlocal failed
        failed += 1
        sys.stderr.write("FAIL %s: %s\n" % (task.tid, why))

    # counters: one untimed --stats-json invocation per task
    counters = {}
    for task in tasks:
        argv = task.stats_argv()
        if argv is None:
            continue
        rc, out, err, _ = spawn(argv)
        lines = [l for l in out.split("\n") if l.startswith('{"schema"')]
        if not lines:
            fail(task, "no stats document")
            continue
        counters[task.tid] = json.loads(lines[-1])

    passes, startups, outside = [], [], []
    first_records = {}
    while True:
        order = tasks[:]
        rng.shuffle(order)
        records, plain_wall, traced_wall = [], 0, 0
        for task in order:
            rc, out, err, took = spawn(task.cli_argv())
            attempted += 1
            ok, _, why = judge(task, rc, out, err, expected)
            if not ok:
                fail(task, why)
                continue
            drc, dout, derr, _ = spawn(task.driver_argv(False))
            body, plain = split_driver(dout)
            trc, tout, terr, _ = spawn(task.driver_argv(True))
            tbody, traced = split_driver(tout)
            if plain is None or traced is None:
                fail(task, "driver failed: %s %s" % (derr.strip(),
                                                    terr.strip()))
                continue
            if (drc, body) != (rc, out) or (trc, tbody) != (rc, out):
                fail(task, "driver verdict differs from the CLI")
                continue
            c = counters.get(task.tid, {}).get("counters", {})
            res = traced["results"]
            if task.kind == "tournament" and res.get(
                    "replay.chase_triggers") != c.get("chase.triggers", 0):
                fail(task, "replayed trigger count %s != %s" % (
                    res.get("replay.chase_triggers"), c.get("chase.triggers", 0)))
                continue
            if task.kind == "finite" and res.get(
                    "replay.sat_clauses") != c.get("sat.clauses", 0):
                fail(task, "replayed clause count %s != %s" % (
                    res.get("replay.sat_clauses"), c.get("sat.clauses", 0)))
                continue
            outside.append(took * 1000 - plain["wall_us"] / 1000)
            plain_wall += plain["wall_us"]
            root = next(s for s in traced["spans"] if s[0] == 0)
            traced_wall += root[4] - root[3]
            records.append((task.tid, traced))
            first_records.setdefault(task.tid, (plain, traced))
        for _ in range(5):
            startups.append(spawn([CLI, "--version"])[3] * 1000)
        acc = layer_pass(records)
        acc["trace.overhead_ratio"] = (traced_wall / plain_wall
                                       if plain_wall else 0.0)
        passes.append(acc)
        if time.perf_counter() >= deadline:
            break

    metrics = {}
    for key, unit in PER_LAYER:
        values = [p.get(key, 0.0) for p in passes]
        metrics[key] = (statistics.median(values), unit)
    metrics["cli.startup_ms"] = (statistics.median(startups), "ms")
    metrics["cli.outside_ms"] = (statistics.median(outside)
                                 if outside else 0.0, "ms")

    def total(get):
        return sum(get(d) for d in counters.values())

    def counter(key):
        return total(lambda d: d.get("counters", {}).get(key, 0))

    def block(name, key):
        return total(lambda d: d.get(name, {}).get(key, 0))

    hits, misses = counter("plan.cache.hit"), counter("plan.cache.miss")
    probes = counter("plan.probes")
    triggers = counter("chase.triggers")
    decisions = block("sat", "decisions")
    results = {}
    for plain, traced in first_records.values():
        for k, v in traced["results"].items():
            results[k] = results.get(k, 0) + v
    kept, generated = results.get("rewrite.kept", 0), results.get(
        "rewrite.generated", 0)
    chase_ms = metrics["chase.ms"][0]
    counts = {
        "chase.rounds": counter("chase.rounds"),
        "chase.triggers": triggers,
        "chase.new_atoms": counter("chase.atoms"),
        "chase.useful_ratio": (counter("chase.atoms") / triggers
                               if triggers else 0.0),
        "chase.enum_share": (metrics["chase.enum_ms"][0] / chase_ms
                             if chase_ms else 0.0),
        "plan.compiles": misses,
        "plan.cache_hit_ratio": (hits / (hits + misses)
                                 if hits + misses else 0.0),
        "plan.probes": probes,
        "plan.matches_per_probe": (counter("plan.matches") / probes
                                   if probes else 0.0),
        "datalog.rounds": counter("datalog.rounds"),
        "rewrite.generated": counter("rewrite.generated"),
        "rewrite.kept_ratio": kept / generated if generated else 0.0,
        "provenance.facts": block("provenance", "facts"),
        "provenance.store_bytes": block("provenance", "store_bytes"),
        "sat.clauses": block("sat", "clauses"),
        "sat.decisions": decisions,
        "sat.conflicts": block("sat", "conflicts"),
        "sat.conflicts_per_decision": (block("sat", "conflicts") / decisions
                                       if decisions else 0.0),
        "tournament.size": results.get("tournament.size", 0),
        "witness.edges": results.get("witness.edges", 0),
        "surgery.rules_out": results.get("surgery.rules_out", 0),
        "injective.disjuncts": results.get("injective.disjuncts", 0),
        "atoms.created": sum(p["atoms_created"]
                             for p, _ in first_records.values()),
        "gc.major_collections": sum(p["major_collections"]
                                    for p, _ in first_records.values()),
        "names.live_bytes": max([p["names_live_bytes"]
                                 for p, _ in first_records.values()] or [0]),
    }
    for key, value in counts.items():
        metrics[key] = (value, metrics[key][1])
    sys.stderr.write("%s: %d traced passes\n" % (name, len(passes)))
    return attempted, failed, metrics


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def smoke(expected):
    """Every workload once in both modes; checks names, units, coverage."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS, "workloads"
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            runner = run_traced if trace else run_untraced
            attempted, failed, metrics = runner(name, 1, 0, expected)
            got = {k: u for k, (_, u) in metrics.items()}
            if got != want[trace]:
                problems.append("%s trace %d: metrics differ from "
                                "BENCHMARK.json: %s" % (
                                    name, trace,
                                    set(got.items()) ^ set(want[trace].items())))
            if failed:
                problems.append("%s trace %d: %d of %d tasks failed"
                                % (name, trace, failed, attempted))
            if trace and metrics["trace.coverage"][0] < 0.9:
                problems.append("%s: trace.coverage %.3f < 0.9"
                                % (name, metrics["trace.coverage"][0]))
            print("%s trace=%d %s" % (name, trace, result_line(
                attempted, failed, metrics)))
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    os.chdir(ROOT)
    build()
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    if a.smoke:
        sys.exit(smoke(expected))
    if a.workload is None:
        ap.error("--workload is required")
    print(json.dumps({"host": host_block(), "workload": a.workload,
                      "seed": a.seed, "trace": a.trace}))
    runner = run_traced if a.trace else run_untraced
    attempted, failed, metrics = runner(a.workload, a.seed, a.seconds,
                                        expected)
    print(result_line(attempted, failed, metrics))


if __name__ == "__main__":
    main()
