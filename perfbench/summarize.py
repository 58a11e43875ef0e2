#!/usr/bin/env python3
"""Summarise benchmark runs recorded in perfbench/out/runs.jsonl.

    python3 perfbench/summarize.py [--runs FILE] [--split SEED] [--trace 0|1]

For each workload and metric, prints the median, the quartiles (as
Python's statistics.quantiles(values, n=4) gives them), the sample count
and the spread (quartile distance over median). With --split, runs with a
seed below SEED form set A and the rest set B: B's median is compared with
A's, using the bounds in BENCHMARK.json, and every end-to-end metric whose
B median is worse than A's by more than its bound is named.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict


def load(path, trace):
    with open(path) as f:
        return [r for r in map(json.loads, f) if str(r["trace"]) == trace]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    if not a:
        return 0.0 if a == b else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", default=os.path.join("perfbench", "out", "runs.jsonl"))
    parser.add_argument("--split", type=int)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    runs = load(args.runs, args.trace)
    if not runs:
        print("no runs recorded", file=sys.stderr)
        return 1

    by_workload = defaultdict(list)
    for r in runs:
        by_workload[r["workload"]].append(r)

    failed_checks = []
    for workload, rs in sorted(by_workload.items()):
        sets = {"all": rs}
        if args.split is not None:
            sets = {
                "A": [r for r in rs if r["seed"] < args.split],
                "B": [r for r in rs if r["seed"] >= args.split],
            }
        hosts = {(r["host"]["nproc"], r["host"]["rustc"]) for r in rs if "host" in r}
        print(f"\n{workload}: {len(rs)} runs on {sorted(hosts)}")
        print(f"  correct in every run: {all(r['correct'] for r in rs)}; "
              f"failed operations: {sum(r['failed'] for r in rs)} of "
              f"{sum(r['attempted'] for r in rs)}")
        names = list(rs[0]["metrics"])
        for name in names:
            unit = rs[0]["metrics"][name]["unit"]
            cells = []
            meds = {}
            for label, group in sets.items():
                vals = [r["metrics"][name]["value"] for r in group]
                vals = [v for v in vals if v is not None]
                if not vals:
                    continue
                med, q1, q3, spread = summary(vals)
                meds[label] = med
                cells.append(
                    f"{label}: median {med:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)} "
                    f"spread {spread:.3f}"
                )
            line = f"  {name:<24} {unit:<6} " + " | ".join(cells)
            m = spec.get(name)
            if m and len(meds) == 2:
                w = worse_by(meds["A"], meds["B"], m["better"])
                ok = w <= m["bound"]
                line += f" | B worse by {w:+.3f} (bound {m['bound']}) {'ok' if ok else 'OUT'}"
                if not ok:
                    failed_checks.append(f"{workload}/{name}")
            print(line)
    if args.split is not None:
        print("\nmedians of set B outside set A's bounds: "
              + (", ".join(failed_checks) if failed_checks else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
