#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on perf regressions.

CI archives ``BENCH_micro_sim.json`` on every run; this script diffs the
current file against the previous run's artifact and exits non-zero when
any pinned steady-state benchmark regressed by more than the allowed
fraction. The pinned set covers the convergence-aware solve paths that
PR "early-exit fixed point + steady-state replay" sped up — the ones a
careless change to the solver or the replay fingerprint would silently
slow down again.

Missing inputs are tolerated by design: the first run of a repository
(or a renamed bench) has no baseline to diff against, so absence of the
old file or of a pinned bench in it warns and skips that diff; the
intra-file --overhead/--speedup pins still run. Absence of a pinned bench
in the *new* file is an error — the bench was deleted.

A file written with --benchmark_repetitions holds one entry per
repetition plus aggregates; each bench then reads as its `median`
aggregate.

Usage:
    bench_compare.py OLD.json NEW.json [--max-regression 0.25]
                     [--bench NAME ...]
"""

from __future__ import annotations

import argparse
import json
import sys

# Steady-state machine-step and MRC-profiler benches guarded against
# regression. Keep in sync with bench/micro_sim.cpp and the README perf
# table.
DEFAULT_BENCHES = [
    "BM_MachineStepSteadyState",
    "BM_MachineStep10Apps",
    "BM_MachineStepPartitioned",
    # Every quantum solves: a throttle flips before each step, on a
    # 10-app machine and on churn's HP-plus-one-BE shape.
    "BM_MachineSolveAfterActuation",
    "BM_MachineSolveSmallMachine",
    "BM_MachineRunPeriod",
    # The interval-stepping pair over the same 8 machines: step() per
    # quantum and run_until per control interval (bulk replay commits);
    # --speedup pins the interval run >= 2x faster.
    "BM_MachineStepEachQuantum",
    "BM_MachineRunInterval",
    # The sweep's chunked grid workers on one thread.
    "BM_SweepBatched/real_time",
    "BM_ProfileMrcSampled",
    # The single-worker fleet epoch (control plane + data plane + ordered
    # reduction); the multi-worker variant's name depends on the runner's
    # core count, so only the /1 shard is pinned.
    "BM_FleetEpoch/1/real_time",
    # Telemetry hot path and the fully-instrumented fleet epoch (registry
    # + trace-counter sink); --overhead pins the latter's cost relative to
    # the uninstrumented epoch.
    "BM_MetricsRecord",
    "BM_FleetEpochWithMetrics/1/real_time",
    # One MRC best-fit decision over a churning 2000-machine fleet off the
    # PlacementIndex, and the 10k-machine churn-heavy epoch that guards
    # fleet_sim's wall clock at datacenter scale.
    "BM_FleetPlacementIndexed",
    "BM_FleetEpochChurn/real_time",
]

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times_ns(path):
    """Map benchmark name -> real_time in ns (the median aggregate when the
    file has one), or None if unreadable."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        return None
    times = {}
    medians = {}
    for b in data.get("benchmarks", []):
        unit = _UNIT_NS.get(b.get("time_unit", "ns"))
        if unit is None or "real_time" not in b or "name" not in b:
            continue
        if b.get("run_type") != "aggregate":
            times[b["name"]] = b["real_time"] * unit
        elif b.get("aggregate_name") == "median":
            medians[b.get("run_name", b["name"])] = b["real_time"] * unit
    times.update(medians)
    return times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="baseline benchmark JSON (previous run)")
    ap.add_argument("new", help="current benchmark JSON")
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per bench (default 0.25 = +25%%)",
    )
    ap.add_argument(
        "--bench",
        action="append",
        default=None,
        metavar="NAME",
        help="pinned bench to compare (repeatable; default: the "
        "steady-state machine-step set)",
    )
    ap.add_argument(
        "--overhead",
        action="append",
        default=None,
        metavar="BASE:WITH:MAXFRAC",
        help="pin WITH <= (1 + MAXFRAC) * BASE within the *new* file "
        "(repeatable) — e.g. the metrics-on fleet epoch against the "
        "plain one",
    )
    ap.add_argument(
        "--speedup",
        action="append",
        default=None,
        metavar="BASE:FAST:MINRATIO",
        help="pin BASE >= MINRATIO * FAST within the *new* file "
        "(repeatable) — e.g. the batched machine step against its serial "
        "baseline",
    )
    args = ap.parse_args(argv)
    benches = args.bench if args.bench else DEFAULT_BENCHES

    new = load_times_ns(args.new)
    if new is None:
        print("bench_compare: current results unreadable", file=sys.stderr)
        return 1
    old = load_times_ns(args.old)
    if old is None:
        print("bench_compare: no baseline — skipping the diff (first run?)")
        benches = []

    failed = []
    width = max((len(b) for b in benches), default=0)
    if benches:
        print(
            f"{'benchmark':<{width}} {'old ns':>12} {'new ns':>12} "
            f"{'ratio':>7}"
        )
    for name in benches:
        if name not in new:
            print(f"{name:<{width}} {'-':>12} {'-':>12} {'gone':>7}")
            failed.append(f"{name}: missing from current results")
            continue
        if name not in old:
            print(f"{name:<{width}} {'-':>12} {new[name]:>12.1f} {'new':>7}")
            # Loud but non-fatal: a fresh baseline (new bench, renamed
            # bench, first run) is expected once — but a *silent* skip
            # would let a renamed bench drop out of regression coverage
            # forever.
            print(
                f"bench_compare: WARNING: {name} missing from baseline "
                f"{args.old} — no regression check this run",
                file=sys.stderr,
            )
            continue
        ratio = new[name] / old[name] if old[name] > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + args.max_regression:
            flag = "  << REGRESSION"
            failed.append(f"{name}: {ratio:.2f}x slower")
        print(
            f"{name:<{width}} {old[name]:>12.1f} {new[name]:>12.1f} "
            f"{ratio:>6.2f}x{flag}"
        )

    # Intra-file overhead pins: unlike the old-vs-new diff above, these
    # compare two benches of the *current* run, so they hold even on the
    # first run of a repository and are immune to runner-speed drift.
    for spec in args.overhead or []:
        parts = spec.rsplit(":", 2)
        if len(parts) != 3:
            print(
                f"bench_compare: bad --overhead '{spec}' "
                "(expected BASE:WITH:MAXFRAC)",
                file=sys.stderr,
            )
            return 2
        base_name, with_name, frac_s = parts
        try:
            max_frac = float(frac_s)
        except ValueError:
            print(
                f"bench_compare: bad --overhead fraction '{frac_s}'",
                file=sys.stderr,
            )
            return 2
        missing = [n for n in (base_name, with_name) if n not in new]
        if missing:
            failed.append(
                "overhead: missing from current results: " + ", ".join(missing)
            )
            continue
        ratio = (
            new[with_name] / new[base_name]
            if new[base_name] > 0
            else float("inf")
        )
        flag = ""
        if ratio > 1.0 + max_frac:
            flag = "  << OVERHEAD"
            failed.append(
                f"{with_name}: {ratio:.3f}x of {base_name} "
                f"(limit {1.0 + max_frac:.3f}x)"
            )
        print(
            f"overhead {with_name} / {base_name}: {ratio:.3f}x "
            f"(limit {1.0 + max_frac:.3f}x){flag}"
        )

    # Intra-file speedup pins: the optimised bench must stay at least
    # MINRATIO x faster than its serial baseline in the same run — the
    # forward-looking guarantee an optimisation PR ships with, independent
    # of any archived baseline.
    for spec in args.speedup or []:
        parts = spec.rsplit(":", 2)
        if len(parts) != 3:
            print(
                f"bench_compare: bad --speedup '{spec}' "
                "(expected BASE:FAST:MINRATIO)",
                file=sys.stderr,
            )
            return 2
        base_name, fast_name, ratio_s = parts
        try:
            min_ratio = float(ratio_s)
        except ValueError:
            print(
                f"bench_compare: bad --speedup ratio '{ratio_s}'",
                file=sys.stderr,
            )
            return 2
        missing = [n for n in (base_name, fast_name) if n not in new]
        if missing:
            failed.append(
                "speedup: missing from current results: " + ", ".join(missing)
            )
            continue
        ratio = (
            new[base_name] / new[fast_name]
            if new[fast_name] > 0
            else float("inf")
        )
        flag = ""
        if ratio < min_ratio:
            flag = "  << TOO SLOW"
            failed.append(
                f"{fast_name}: only {ratio:.2f}x faster than {base_name} "
                f"(needs >= {min_ratio:.2f}x)"
            )
        print(
            f"speedup {base_name} / {fast_name}: {ratio:.2f}x "
            f"(needs >= {min_ratio:.2f}x){flag}"
        )

    if failed:
        limit = 1.0 + args.max_regression
        print(
            f"bench_compare: FAIL (limit {limit:.2f}x): " + "; ".join(failed),
            file=sys.stderr,
        )
        return 1
    print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
