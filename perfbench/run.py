#!/usr/bin/env python3
"""The repository benchmark: seeded workloads timed end to end and, in a
separate traced run, per layer.

    python3 perfbench/run.py --workload repro_cold --seed 1 --trace 0
    python3 perfbench/run.py --workload all --out results.json

It builds the simulator from source (Release) into $CARGO_TARGET_DIR, else
.bench_build, next to this directory, runs the workload, checks the
simulated outputs and prints a report; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
exit code is non-zero when a check fails. --out also writes the full
result (environment, counts, digests) for perfbench/compare.py.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Artefacts of the cold reproduction in run order, with the line count
# (header included) of the CSV each writes; table1_config writes none.
ARTEFACTS = [
    ("table1_config", None, None),
    ("fig1_slowdown_cdf", "fig1_slowdown_cdf.csv", 12),
    ("fig2_ways_cdf", "fig2_ways_cdf.csv", 21),
    ("fig3_static_sweep", "fig3_static_sweep.csv", 20),
    ("fig4_efu_scatter", "fig4_efu_scatter.csv", 121),
    ("fig5_per_workload", "fig5_per_workload.csv", 121),
    ("fig6_efu_cores", "fig6_efu_cores.csv", 10),
    ("fig7_slo", "fig7_slo.csv", 37),
    ("fig8_suci", "fig8_suci.csv", 109),
    ("ablation_dicer", "ablation_dicer.csv", 6),
    ("timeline_dicer", "timeline_dicer.csv", 41),
]
# Caches the artefacts share: (file, writer, lines incl. the key line).
CACHES = [
    ("cache_baseline_study.csv", "fig1_slowdown_cdf", 3483),
    ("cache_policy_sweep.csv", "fig5_per_workload", 3242),
]
# The simulated results both the untraced and the traced run produce.
SIM_OUTPUTS = ["cache_baseline_study.csv", "cache_policy_sweep.csv",
               "ablation_dicer.csv"]

FLEET_CORES = 10  # fleet::FleetConfig::cores_used default
# jobs 0 is the shipped default, one worker per hardware thread.
# fleet_saturated's data plane keeps every worker busy between barriers, so
# on a shared host its wall time at that count follows the other tenants'
# load; at half the threads it follows the program.
FLEETS = {
    "fleet_churn_10k": dict(machines=10000, arrival_rate=400,
                            mean_lifetime=8, catalog="default",
                            warmup=1, epochs=12, jobs=0),
    "fleet_saturated": dict(machines=800, arrival_rate=400,
                            mean_lifetime=20, catalog="trace",
                            warmup=40, epochs=100, jobs=2),
}
WORKLOADS = ["repro_cold", "fleet_churn_10k", "fleet_saturated"]
SETUP_REPS = 5  # fleet set-ups per set-up-only process
# repro_cold's set-up: catalog builds in a few processes before the first
# round and after every round, pooled, so one slow stretch of the host does
# not move the median.
STARTUP_PROCESSES = 5
STARTUP_REPS = 101

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("harness.solo_s", "s"),
    ("harness.baseline_study_s", "s"),
    ("harness.consolidations", "count"),
    ("harness.consolidation_ms_p50", "ms"),
    ("harness.consolidation_ms_tail", "ms"),
    ("harness.parallelism", "ratio"),
    ("harness.sweep_s", "s"),
    ("harness.sweep_cells", "count"),
    ("harness.ablation_s", "s"),
    ("harness.cache_save_ms", "ms"),
    ("harness.cache_load_ms", "ms"),
    ("harness.cache_bytes", "bytes"),
    ("harness.self_s", "s"),
    ("sim.quanta", "count"),
    ("sim.solves", "count"),
    ("sim.replay_share", "ratio"),
    ("sim.rounds_per_solve", "ratio"),
    ("sim.capped_solve_share", "ratio"),
    ("sim.invalidations_actuator", "count"),
    ("sim.ns_per_quantum", "ns"),
    ("sim.self_s", "s"),
    ("policy.actuations", "count"),
    ("policy.samplings", "count"),
    ("fleet.departures_ms_p50", "ms"),
    ("fleet.migrations_ms_p50", "ms"),
    ("fleet.arrivals_ms_p50", "ms"),
    ("fleet.decisions", "count"),
    ("fleet.us_per_decision", "us"),
    ("fleet.rejections", "count"),
    ("fleet.migrations", "count"),
    ("fleet.index_mutations", "count"),
    ("fleet.step_ms_p50", "ms"),
    ("fleet.first_epoch_ms", "ms"),
    ("fleet.step_parallelism", "ratio"),
    ("fleet.reduce_ms_p50", "ms"),
    ("fleet.catalog_s", "s"),
    ("fleet.boot_s", "s"),
    ("fleet.epoch_ms_p50", "ms"),
    ("fleet.epoch_ms_tail", "ms"),
    ("fleet.epoch_tail_pct", "%"),
    ("fleet.timed_epochs", "count"),
    ("fleet.rejected_share", "ratio"),
    ("fleet.self_s", "s"),
    ("telemetry.export_ms", "ms"),
    ("telemetry.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.wall_ratio", "ratio"),
]
# Counts a speed-only change must leave exactly as they were.
EXACT_COUNTS = ["sim.quanta", "sim.solves", "harness.consolidations",
                "fleet.decisions", "fleet.rejections", "fleet.index_mutations"]

RUN_BUDGET_S = 170.0  # a run ends well inside the 180 s it is allowed
BUILD_BUDGET_S = 840.0


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# ---------------------------------------------------------------- processes

def run_child(bins, argv, cwd, log_path, deadline):
    """Run one program to completion; returns its exit code, wall and CPU
    seconds and peak RSS.

    The program runs under `perfbench_driver spawn`, which measures it: a
    child's ru_maxrss would otherwise include this Python process's own
    memory. Both are killed if they outlive `deadline` (a time.monotonic()
    value), and neither outlives this call.
    """
    stats = log_path.with_name(log_path.name + ".stats")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [str(a) for a in (bins / "perfbench_driver", "spawn", stats,
                              *argv)],
            cwd=cwd, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        stop_group(proc)
    if proc.returncode != 0 or not stats.exists():
        return {"code": proc.returncode or -1, "wall_s": 0.0, "cpu_s": 0.0,
                "rss_mb": 0.0}
    return json.loads(stats.read_text())


def stop_group(proc):
    """Kill a child's process group unless the child has exited, then wait
    until no process of the group is left."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    for _ in range(1000):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_driver(bins, args, workdir, deadline):
    """Run perfbench_driver; returns (process stats, its JSON result)."""
    log = workdir / "driver.out"
    proc = run_child(bins, [bins / "perfbench_driver", *args], workdir, log,
                     deadline)
    text = log.read_text(errors="replace")
    if proc["code"] != 0:
        raise BenchError(f"perfbench_driver {args[0]} exited "
                         f"{proc['code']}: {text.strip()[-400:]}")
    return proc, json.loads(text.strip().splitlines()[-1])


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(jobs):
    """Configure and build the benchmark package; returns the binary dir."""
    if not (ROOT / "src").is_dir() or not (ROOT / "bench").is_dir():
        raise BenchError(f"no simulator sources next to {BENCH_DIR.name}/ "
                         "(expected src/ and bench/)")
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", str(jobs)],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=BUILD_BUDGET_S)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd) + "\n" +
                             (proc.stdout + proc.stderr)[-2000:])
    return out


# ------------------------------------------------------------------ helpers

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with ten samples or fewer it falls back to
    the maximum, reported as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes() if p.exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()[:16]


def csv_problems(path, expected_lines):
    """Row-count and finiteness problems of one CSV output."""
    if not path.exists():
        return [f"{path.name} missing"]
    lines = path.read_text().splitlines()
    problems = []
    if len(lines) != expected_lines:
        problems.append(f"{path.name}: {len(lines)} lines, expected "
                        f"{expected_lines}")
    for n, line in enumerate(lines, 1):
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                problems.append(f"{path.name}:{n}: non-finite value {cell}")
                break
    return problems


def source_digest():
    """Content hash of the simulator sources (the checkout is no git repo)."""
    h = hashlib.sha256()
    for sub in ("src", "bench", "examples"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(info):
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": info.get("workers"),
        "build_type": info.get("build_type"),
        "compiler": info.get("compiler"),
        "commit": commit,
        "sources": source_digest(),
    }


# ------------------------------------------------------------- span layers

def layer_of(name):
    """The program layer a span's self time belongs to (None: benchmark)."""
    if name.startswith("fleet.") or name in ("Cluster", "step_epoch"):
        return "fleet"
    if name.startswith("harness.") or name in (
            "solo_steady_state", "baseline_study", "load_baseline_cache",
            "save_baseline_cache", "policy_sweep", "policy_sweep_cached",
            "ablation_dicer"):
        return "harness"
    if name in ("default_catalog", "AppCatalog", "trace_augmented_catalog"):
        return "sim"
    if name == "to_prometheus":
        return "telemetry"
    return None


def _dur(s):
    return s["t1"] - s["t0"]


def _holds(outer, inner):
    """Whether `outer` holds `inner`: program spans are stamped when they
    close and carry only their duration, so their starts are approximate;
    a span holding most of a shorter one is its parent."""
    if _dur(outer) <= _dur(inner):
        return False
    if _dur(inner) == 0:
        return outer["t0"] <= inner["t0"] <= outer["t1"]
    overlap = min(outer["t1"], inner["t1"]) - max(outer["t0"], inner["t0"])
    return 2 * overlap > _dur(inner)


def nest_spans(spans):
    """Give every program span a parent, then every span its self time.

    Driver spans carry exact parents. A program span goes under the
    innermost span of its own thread that holds it, else under the
    innermost driver span enclosing it (pool workers have no driver spans).
    Self time is the duration minus the union of the children's intervals.
    """
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["t0"], spans[i]["program"],
                                  -spans[i]["t1"]))
    stack = []
    for i in order:
        s = spans[i]
        while stack and spans[stack[-1]]["t1"] < s["t1"]:
            stack.pop()
        if s["program"]:
            s["parent"] = stack[-1] if stack else -1
        else:
            stack.append(i)

    groups = defaultdict(list)
    for i, s in enumerate(spans):
        if s["program"]:
            groups[(s["parent"], s["tid"])].append(i)
    for (group, _), members in groups.items():
        members.sort(key=lambda i: (spans[i]["t0"], -_dur(spans[i])))
        open_spans = []
        for i in members:
            s = spans[i]
            adopted = []
            while open_spans:
                top = spans[open_spans[-1]]
                if _holds(top, s):
                    break
                if _holds(s, top):
                    adopted.append(open_spans.pop())
                else:
                    open_spans.pop()
            s["parent"] = open_spans[-1] if open_spans else group
            open_spans.append(i)
            for j in reversed(adopted):
                spans[j]["parent"] = i
                open_spans.append(j)

    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    for i, s in enumerate(spans):
        covered, end = 0, s["t0"]
        for c in sorted(children[i], key=lambda j: spans[j]["t0"]):
            lo = max(spans[c]["t0"], end)
            hi = min(spans[c]["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        s["self"] = _dur(s) - covered
    return spans


def covered_share(spans, wall_s):
    """Share of `wall_s` during which some named layer's span was open."""
    intervals = sorted((s["t0"], s["t1"]) for s in spans if layer_of(s["name"]))
    covered, end = 0, None
    for t0, t1 in intervals:
        if end is None or t0 > end:
            covered += t1 - t0
            end = t1
        elif t1 > end:
            covered += t1 - end
            end = t1
    return covered * 1e-9 / wall_s


def self_times(spans):
    """Seconds of self time per span name and per layer."""
    by_name = defaultdict(lambda: [0, 0.0])
    by_layer = defaultdict(float)
    for s in spans:
        by_name[s["name"]][0] += 1
        by_name[s["name"]][1] += s["self"] * 1e-9
        layer = layer_of(s["name"])
        if layer:
            by_layer[layer] += s["self"] * 1e-9
    return by_name, by_layer


def span_report(by_name):
    """Self time per span name; spans of pool workers add up across
    threads, so the total can exceed the wall time."""
    total = sum(self_s for _, self_s in by_name.values()) or 1.0
    lines = ["  span                        count    self s   share"]
    for name, (count, self_s) in sorted(by_name.items(),
                                        key=lambda kv: -kv[1][1]):
        lines.append(f"  {name:<26}{count:>7}{self_s:>10.4f}"
                     f"{100.0 * self_s / total:>7.1f}%")
    return lines


def ms_of(spans, name, parents=None):
    return [_dur(s) * 1e-6 for s in spans if s["name"] == name and
            (parents is None or s["parent"] in parents)]


# --------------------------------------------------------------- workloads

class Result:
    def __init__(self):
        self.metrics = {}
        self.counts = {}
        self.digests = {}
        self.lines = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.info = {}


def artefact_round(bins, workdir, deadline):
    """One cold reproduction: every artefact in order from an empty cache
    directory. Returns wall, CPU, peak RSS, per-artefact failures and the
    output digests."""
    out = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "artefacts": {},
           "problems": [], "failed": 0}
    for name, csv_name, lines in ARTEFACTS:
        proc = run_child(bins, [bins / name, "--cache-dir", workdir],
                         workdir, workdir / f"{name}.log", deadline)
        out["wall_s"] += proc["wall_s"]
        out["cpu_s"] += proc["cpu_s"]
        out["rss_mb"] = max(out["rss_mb"], proc["rss_mb"])
        out["artefacts"][name] = proc["wall_s"]
        problems = []
        if proc["code"] != 0:
            problems.append(f"{name} exited {proc['code']}")
        if csv_name:
            problems += csv_problems(workdir / csv_name, lines)
        for cache, writer, cache_lines in CACHES:
            if writer == name:
                problems += csv_problems(workdir / cache, cache_lines)
        if problems:
            out["failed"] += 1
            out["problems"] += problems
    out["sim_digest"] = sha256_files([workdir / f for f in SIM_OUTPUTS])
    out["artefact_digest"] = sha256_files(
        [workdir / csv for _, csv, _ in ARTEFACTS if csv])
    return out


def repro_cold(bins, tmp, seed, seconds, trace, deadline):
    del seed  # the paper's workload set is fixed; nothing to draw
    res = Result()
    builds = []

    def sample_startup():
        work = Path(tempfile.mkdtemp(prefix="startup-", dir=tmp))
        for _ in range(STARTUP_PROCESSES):
            _, startup = run_driver(bins, ["startup", "--reps", STARTUP_REPS],
                                    work, deadline)
            builds.extend(startup["catalog_s"])
        shutil.rmtree(work)
        res.info.update((k, startup[k]) for k in ("workers", "build_type",
                                                  "compiler"))

    rounds = []
    sample_startup()
    t_start = time.monotonic()
    while True:
        work = Path(tempfile.mkdtemp(prefix="repro-", dir=tmp))
        r = artefact_round(bins, work, deadline)
        shutil.rmtree(work)
        sample_startup()
        rounds.append(r)
        res.attempted += len(ARTEFACTS)
        res.failed += r["failed"]
        res.problems.extend(r["problems"])
        elapsed = time.monotonic() - t_start
        if trace or elapsed + r["wall_s"] > seconds:
            break
    for key in ("sim_digest", "artefact_digest"):
        values = {r[key] for r in rounds}
        if len(values) != 1:
            res.problems.append(f"{key} differs between rounds: "
                                f"{sorted(values)}")
        res.digests[key] = rounds[0][key]
    res.metrics.update(
        wall_s=median([r["wall_s"] for r in rounds]),
        cpu_s=median([r["cpu_s"] for r in rounds]),
        setup_s=median(builds),
        peak_rss_mb=median([r["rss_mb"] for r in rounds]))
    slowest = sorted(rounds[0]["artefacts"].items(), key=lambda kv: -kv[1])
    res.lines.append(f"  rounds: {len(rounds)}; slowest artefacts: " +
                     ", ".join(f"{n} {w:.2f} s" for n, w in slowest[:3]))
    res.lines.append(f"  set-up: median of {len(builds)} catalog builds in "
                     f"{STARTUP_PROCESSES * (len(rounds) + 1)} processes")
    res.lines.append("  failed_share: "
                     f"{res.failed / max(1, res.attempted):.4f} "
                     f"({res.failed} of {res.attempted} artefacts)")
    if trace:
        traced_repro(bins, tmp, rounds[0], res, deadline)
    return res


def traced_repro(bins, tmp, untraced, res, deadline):
    """The harness calls the artefacts make, in-process with spans, then
    the ablation artefact as one span of its own."""
    work = Path(tempfile.mkdtemp(prefix="traced-", dir=tmp))
    try:
        proc, out = run_driver(bins, ["harness", "--out", work, "--traced"],
                               work, deadline)
        spans = json.loads((work / "spans.json").read_text())
        res.attempted += 1
        t0 = time.monotonic_ns()
        ablation = run_child(bins, [bins / "ablation_dicer", "--cache-dir",
                                    work],
                             work, work / "ablation_dicer.log", deadline)
        spans.append({"name": "ablation_dicer", "t0": t0,
                      "t1": time.monotonic_ns(), "parent": -1, "tid": 0,
                      "program": False})
        res.attempted += 1
        problems = [] if ablation["code"] == 0 else [
            f"ablation_dicer exited {ablation['code']}"]
        problems += csv_problems(work / "ablation_dicer.csv", 6)
        for cache, _, lines in CACHES:
            problems += csv_problems(work / cache, lines)
        if (work / "roundtrip_baseline.csv").read_bytes() != \
                (work / "cache_baseline_study.csv").read_bytes():
            problems.append("baseline cache changed on a load/save trip")
        digest = sha256_files([work / f for f in SIM_OUTPUTS])
        if digest != untraced["sim_digest"]:
            problems.append(f"traced sim_digest {digest} != untraced "
                            f"{untraced['sim_digest']}")
        if problems:
            res.failed += 1
            res.problems.extend(problems)
        cache_bytes = sum((work / c).stat().st_size for c, _, _ in CACHES)
    finally:
        shutil.rmtree(work)

    nest_spans(spans)
    traced_wall = proc["wall_s"] + ablation["wall_s"]
    study = next(i for i, s in enumerate(spans)
                 if s["name"] == "baseline_study")
    cons = ms_of(spans, "harness.run_consolidation", {study})
    every_cons_ns = sum(ms_of(spans, "harness.run_consolidation")) * 1e6
    p_tail, pct = tail(cons)
    solver = out["solver"]
    quanta = solver.get("solver.quanta", 0)
    solves = solver.get("solver.solves", 0)
    counters = out["counters"]
    actuation_kinds = ("allocation", "sampling_start", "donation",
                       "phase_reset", "perf_reset")
    m = {
        "harness.solo_s": out["solo_s"],
        "harness.baseline_study_s": out["baseline_study_s"],
        "harness.consolidations": len(cons),
        "harness.consolidation_ms_p50": median(cons),
        "harness.consolidation_ms_tail": p_tail,
        "harness.parallelism": out["parallelism"],
        "harness.sweep_s": out["sweep_s"],
        "harness.sweep_cells": out["sweep_cells"],
        "harness.ablation_s": ablation["wall_s"],
        "harness.cache_save_ms": out["cache_save_ms"],
        "harness.cache_load_ms": out["cache_load_ms"],
        "harness.cache_bytes": cache_bytes,
        "sim.quanta": quanta,
        "sim.solves": solves,
        "sim.replay_share": solver.get("solver.replays", 0) / max(1, quanta),
        "sim.rounds_per_solve": solver.get("solver.rounds", 0) / max(1, solves),
        "sim.capped_solve_share":
            solver.get("solver.rounds_hist.8", 0) / max(1, solves),
        "sim.invalidations_actuator":
            solver.get("solver.invalidations.actuator", 0),
        "sim.ns_per_quantum": every_cons_ns / max(1, quanta),
        "policy.actuations": sum(counters.get(f"dicer_events_{k}_total", 0)
                                 for k in actuation_kinds),
        "policy.samplings": counters.get("dicer_events_sampling_start_total",
                                         0),
        "telemetry.export_ms": out["export_ms"],
    }
    finish_traced(res, m, spans, traced_wall, untraced["wall_s"],
                  absent=[n for n, _ in PER_LAYER if n.startswith("fleet.")])
    res.lines.append(f"  consolidation tail: p{pct:.1f} of {len(cons)}")


def finish_traced(res, m, spans, traced_wall, untraced_wall, absent):
    """Self times, coverage and overhead; absent metrics report 0."""
    by_name, by_layer = self_times(spans)
    for layer in ("harness", "sim", "fleet", "telemetry"):
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    m["trace.coverage"] = covered_share(spans, traced_wall)
    m["trace.wall_ratio"] = traced_wall / untraced_wall
    for name, _ in PER_LAYER:
        if name not in m:
            m[name] = 0
            absent.append(name)
    res.metrics = m
    res.counts.update({k: m[k] for k in EXACT_COUNTS})
    res.lines.append(f"  traced wall {traced_wall:.3f} s vs untraced "
                     f"{untraced_wall:.3f} s (ratio "
                     f"{m['trace.wall_ratio']:.3f}); named layers cover "
                     f"{100 * m['trace.coverage']:.1f}% of it")
    res.lines.append("  self time by layer: " + ", ".join(
        f"{k} {v:.3f} s" for k, v in sorted(by_layer.items())))
    res.lines += span_report(by_name)
    res.lines.append("  not measured on this workload (reported as 0): " +
                     (", ".join(sorted(set(absent))) or "none"))


def fleet_args(spec, seed, setups, warmup, epochs):
    return ["--machines", spec["machines"],
            "--arrival-rate", spec["arrival_rate"],
            "--mean-lifetime", spec["mean_lifetime"],
            "--catalog", spec["catalog"], "--jobs", spec["jobs"],
            "--seed", seed,
            "--setups", setups, "--warmup", warmup, "--epochs", epochs]


def fleet_setups(bins, tmp, spec, seed, deadline):
    """(catalog, Cluster) seconds of each set-up of one set-up-only
    process; the first pays the process's cold allocations."""
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=tmp))
    try:
        _, out = run_driver(bins, ["fleet", "--out", work,
                                   *fleet_args(spec, seed, SETUP_REPS, 0, 0)],
                            work, deadline)
    finally:
        shutil.rmtree(work)
    return list(zip(out["catalog_s"], out["boot_s"]))


def fleet_round(bins, tmp, spec, seed, traced, deadline):
    work = Path(tempfile.mkdtemp(prefix="fleet-", dir=tmp))
    try:
        args = ["fleet", "--out", work,
                *fleet_args(spec, seed, 1, spec["warmup"], spec["epochs"])]
        if traced:
            args.append("--traced")
        proc, out = run_driver(bins, args, work, deadline)
        out["proc"] = proc
        out["digest"] = sha256_files([work / "outputs.txt"])
        out["rows"], out["problems"] = fleet_rows(work / "outputs.txt",
                                                  spec["machines"])
        if traced:
            out["spans"] = json.loads((work / "spans.json").read_text())
    finally:
        shutil.rmtree(work)
    return out


def fleet_rows(path, machines):
    """The per-epoch rows of a fleet run and the rows failing the checks."""
    text = path.read_text()
    lines = text.split("# placement log\n", 1)[0].splitlines()
    header = lines[0].split(",")
    rows, problems = [], []
    tenants = 0
    for line in lines[1:]:
        row = dict(zip(header, (float(v) for v in line.split(","))))
        bad = []
        if len(row) != len(header) or not all(map(math.isfinite,
                                                  row.values())):
            bad.append("non-finite or short row")
        expect = tenants + row["arrivals"] - row["rejected"] - \
            row["departures"]
        if row["tenants"] != expect:
            bad.append(f"tenants {row['tenants']:.0f} != {expect:.0f}")
        if row["tenants"] > machines * (FLEET_CORES - 1):
            bad.append(f"tenants {row['tenants']:.0f} over capacity")
        if bad:
            problems.append(f"epoch {row['epoch']:.0f}: " + "; ".join(bad))
        rows.append(row)
        tenants = row["tenants"]
    return rows, problems


def fleet(name, bins, tmp, seed, seconds, trace, deadline):
    spec = FLEETS[name]
    res = Result()
    rounds = []
    # Set-up is sampled before the first round and after every round: the
    # host's speed moves in plateaus of seconds, which one burst of set-ups
    # would sample only once.
    setups = fleet_setups(bins, tmp, spec, seed, deadline)
    t_start = time.monotonic()
    while True:
        r = fleet_round(bins, tmp, spec, seed, False, deadline)
        setups += fleet_setups(bins, tmp, spec, seed, deadline)
        rounds.append(r)
        res.attempted += len(r["rows"])
        res.failed += len(r["problems"])
        res.problems.extend(r["problems"])
        elapsed = time.monotonic() - t_start
        if trace or elapsed + r["proc"]["wall_s"] > seconds:
            break
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        res.problems.append(f"outputs differ between rounds: "
                            f"{sorted(digests)}")
    res.digests["sim_digest"] = rounds[0]["digest"]
    warm = spec["warmup"]
    timed = [ms for r in rounds for ms in r["epoch_ms"][warm:]]
    res.metrics.update(
        wall_s=median([r["wall_s"] for r in rounds]),
        cpu_s=median([r["cpu_s"] for r in rounds]),
        setup_s=median([c + b for c, b in setups]),
        peak_rss_mb=median([r["proc"]["rss_mb"] for r in rounds]))
    first = rounds[0]
    rows = first["rows"]
    arrivals = int(sum(r["arrivals"] for r in rows))
    rejected = int(sum(r["rejected"] for r in rows))
    epoch_tail, pct = tail(timed)
    res.counts.update({
        "fleet.decisions": first["decisions"],
        "fleet.rejections": rejected,
        "fleet.index_mutations": first["index_mutations"],
        "sim.quanta": first["counters"].get("dicer_solver_quanta_total", 0),
        "sim.solves": first["counters"].get("dicer_solver_solves_total", 0),
    })
    res.lines.append(f"  rounds: {len(rounds)}; {spec['machines']} machines, "
                     f"{spec['warmup']} warm-up + {spec['epochs']} timed "
                     f"epochs each; set-up: median of {len(setups)} in "
                     f"{len(rounds) + 1} processes")
    res.lines.append(f"  epoch_ms_p50: {median(timed):.3f} ms; "
                     f"epoch_ms_tail: {epoch_tail:.3f} ms (p{pct:.1f} of "
                     f"{len(timed)} timed epochs)")
    res.lines.append(f"  failed_share: {rejected / max(1, arrivals):.4f} "
                     f"({rejected:.0f} of {arrivals:.0f} arrivals rejected)")
    res.info.update(workers=first["workers"],
                    build_type=first["build_type"],
                    compiler=first["compiler"])
    if trace:
        traced_fleet(bins, tmp, spec, seed, first, res, deadline,
                     timed, arrivals, rejected, setups)
    return res


def traced_fleet(bins, tmp, spec, seed, untraced, res, deadline, timed,
                 arrivals, rejected, setups):
    t = fleet_round(bins, tmp, spec, seed, True, deadline)
    res.attempted += len(t["rows"])
    res.failed += len(t["problems"])
    res.problems.extend(t["problems"])
    if t["digest"] != untraced["digest"]:
        res.problems.append(f"traced outputs {t['digest']} != untraced "
                            f"{untraced['digest']}")
    spans = nest_spans(t["spans"])
    epochs = [i for i, s in enumerate(spans) if s["name"] == "step_epoch"]
    timed_epochs = set(epochs[spec["warmup"]:])
    # fleet.epoch sits under each step_epoch; the phases sit under it.
    epoch_spans = {i for i, s in enumerate(spans) if
                   s["name"] == "fleet.epoch" and s["parent"] in timed_epochs}
    inner = epoch_spans | {i for i, s in enumerate(spans)
                           if s["name"] == "fleet.placement" and
                           s["parent"] in epoch_spans}
    counters = untraced["counters"]
    quanta = counters.get("dicer_solver_quanta_total", 0)
    solves = counters.get("dicer_solver_solves_total", 0)
    decisions = untraced["decisions"]
    decision_ms = sum(ms_of(spans, "fleet.arrivals")) + \
        sum(ms_of(spans, "fleet.migrations"))
    epoch_tail, pct = tail(timed)
    actuation_kinds = ("allocation", "sampling_start", "donation",
                       "phase_reset", "perf_reset")
    m = {
        "sim.quanta": quanta,
        "sim.solves": solves,
        "sim.replay_share":
            counters.get("dicer_solver_replays_total", 0) / max(1, quanta),
        "sim.rounds_per_solve":
            counters.get("dicer_solver_rounds_total", 0) / max(1, solves),
        "sim.invalidations_actuator":
            counters.get("dicer_solver_invalidations_actuator_total", 0),
        "sim.ns_per_quantum":
            sum(ms_of(spans, "fleet.step")) * 1e6 / max(1, quanta),
        "policy.actuations": sum(counters.get(f"dicer_events_{k}_total", 0)
                                 for k in actuation_kinds),
        "policy.samplings":
            counters.get("dicer_events_sampling_start_total", 0),
        "fleet.departures_ms_p50": median(ms_of(spans, "fleet.departures",
                                                inner)),
        "fleet.migrations_ms_p50": median(ms_of(spans, "fleet.migrations",
                                                inner)),
        "fleet.arrivals_ms_p50": median(ms_of(spans, "fleet.arrivals",
                                              inner)),
        "fleet.decisions": decisions,
        "fleet.us_per_decision": decision_ms * 1e3 / max(1, decisions),
        "fleet.rejections": rejected,
        "fleet.migrations": int(sum(r["migrations"] for r in untraced["rows"])),
        "fleet.index_mutations": untraced["index_mutations"],
        "fleet.step_ms_p50": median(ms_of(spans, "fleet.step", inner)),
        "fleet.first_epoch_ms": untraced["epoch_ms"][0],
        "fleet.step_parallelism": untraced["cpu_s"] / untraced["wall_s"],
        "fleet.reduce_ms_p50": median(ms_of(spans, "fleet.reduce", inner)),
        "fleet.catalog_s": median([c for c, _ in setups]),
        "fleet.boot_s": median([b for _, b in setups]),
        "fleet.epoch_ms_p50": median(timed),
        "fleet.epoch_ms_tail": epoch_tail,
        "fleet.epoch_tail_pct": pct,
        "fleet.timed_epochs": len(timed),
        "fleet.rejected_share": rejected / max(1, arrivals),
        "telemetry.export_ms": untraced["export_ms"],
    }
    absent = ["sim.capped_solve_share"] + \
        [n for n, _ in PER_LAYER if n.startswith("harness.") and
         n != "harness.self_s"]
    finish_traced(res, m, spans, t["proc"]["wall_s"],
                  untraced["proc"]["wall_s"], absent)


# --------------------------------------------------------------------- main

def run_workload(name, bins, seed, seconds, trace, deadline):
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp))
    try:
        if name == "repro_cold":
            return repro_cold(bins, tmp, seed, seconds, trace, deadline)
        return fleet(name, bins, tmp, seed, seconds, trace, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def refuse_dicer_env():
    """Hatches and overrides change what is measured; refuse to run."""
    set_vars = sorted(k for k in os.environ if k.startswith("DICER_"))
    if set_vars:
        raise BenchError("unset " + ", ".join(set_vars) + " first: the "
                         "benchmark times the program with default settings")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)
    try:
        refuse_dicer_env()
        t0 = time.monotonic()
        bins = build(min(8, len(os.sched_getaffinity(0))))
        print(f"build: {time.monotonic() - t0:.1f} s", file=sys.stderr)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results, ok = {}, True
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            res = run_workload(name, bins, args.seed, args.seconds,
                               bool(args.trace), deadline)
            ok = ok and report(name, res, args, results)
    except BenchError as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


def report(name, res, args, results):
    """Print one workload's report; the JSON result line comes last."""
    env = environment(res.info)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    correct = not res.problems and res.failed == 0
    print(f"{name} (seed {args.seed}, {'traced' if args.trace else 'untraced'}"
          f"): {'outputs OK' if correct else 'OUTPUT CHECK FAILED'}")
    for line in res.problems[:20]:
        print(f"  problem: {line}")
    for key, unit in units.items():
        print(f"  {key:<32}{res.metrics[key]:>16.6g} {unit}")
    print(*res.lines, sep="\n")
    print("  digests: " + ", ".join(f"{k} {v}" for k, v in
                                    sorted(res.digests.items())))
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    results[name] = {"seed": args.seed, "trace": args.trace,
                     "correct": correct, "metrics": res.metrics,
                     "units": units, "counts": res.counts,
                     "digests": res.digests, "environment": env}
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": res.metrics[k], "unit": u}
                    for k, u in units.items()},
    }), flush=True)
    return correct


if __name__ == "__main__":
    sys.exit(main())
