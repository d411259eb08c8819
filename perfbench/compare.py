#!/usr/bin/env python3
"""Compare benchmark results of two versions of the program.

    python3 perfbench/run.py --workload all --seed 1 --out parent.json
    ...                                             --out change.json
    python3 perfbench/compare.py --parent parent*.json --change change*.json

Each side takes one or more result files written by run.py --out. Two
reports, kept apart:

  simulated work  every exact count (sim.quanta, sim.solves,
                  harness.consolidations, fleet.decisions, fleet.rejections,
                  fleet.index_mutations) and every output digest, compared
                  between results of the same workload, seed and trace mode.
                  Any difference is reported as "simulated work changed".
  timing          each end-to-end metric's median over the change's files
                  against the parent's, with the bound BENCHMARK.json fixes
                  ("regressed" when worse by more than the bound).
                  Per-layer metrics have no bound and are listed only.

The exit status is 1 when either report finds something, else 0.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    """{workload: [result, ...]} over every file."""
    out = defaultdict(list)
    for path in paths:
        for workload, result in json.loads(Path(path).read_text()).items():
            out[workload].append(result)
    return out


def exact_differences(parent, change):
    lines = []
    for p in parent:
        for c in change:
            if (p["seed"], p["trace"]) != (c["seed"], c["trace"]):
                continue
            for kind in ("counts", "digests"):
                for key in sorted(set(p[kind]) & set(c[kind])):
                    if p[kind][key] != c[kind][key]:
                        lines.append(f"seed {p['seed']} trace {p['trace']}: "
                                     f"{key} {p[kind][key]} -> "
                                     f"{c[kind][key]}")
    return sorted(set(lines))


def timing(parent, change, bounds):
    lines, regressed = [], False
    for trace in (0, 1):
        ps = [r for r in parent if r["trace"] == trace]
        cs = [r for r in change if r["trace"] == trace]
        if not ps or not cs:
            continue
        for key in ps[0]["metrics"]:
            pv = [r["metrics"][key] for r in ps if key in r["metrics"]]
            cv = [r["metrics"][key] for r in cs if key in r["metrics"]]
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            rel = (cm - pm) / pm if pm else 0.0
            verdict = ""
            if key in bounds:
                bad = rel > bounds[key]
                regressed |= bad
                verdict = (f"REGRESSED (bound {bounds[key]:.0%})" if bad
                           else f"ok (bound {bounds[key]:.0%})")
            unit = ps[0]["units"].get(key, "")
            lines.append(f"  {key:<32}{pm:>14.6g} -> {cm:<14.6g}{unit:<6}"
                         f"{rel:>+8.1%}  {verdict}")
    return lines, regressed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    found = False
    for workload in sorted(set(parent) & set(change)):
        print(f"{workload}:")
        diffs = exact_differences(parent[workload], change[workload])
        if diffs:
            found = True
            print("  simulated work changed:")
            for line in diffs:
                print(f"    {line}")
        else:
            print("  simulated work: identical counts and digests")
        lines, regressed = timing(parent[workload], change[workload], bounds)
        found |= regressed
        print(*lines, sep="\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
