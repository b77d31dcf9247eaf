#!/usr/bin/env python3
"""Summarize the run records that perfbench/run.py appends.

    python3 perfbench/report.py [RECORDS] [--rev REV]

For each workload, prints every end-to-end metric's median and quartiles
over the untraced runs (and their spread: interquartile range / median),
the same over the traced runs, and the tracing overhead (traced median /
untraced median - 1). Then the per-layer medians of the traced runs, with a
note on every count that did not repeat exactly across runs of one seed.
RECORDS defaults to perfbench/_out/records.jsonl.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="?",
                    default=os.path.join("perfbench", "_out", "records.jsonl"))
    ap.add_argument("--rev", help="only records of this revision")
    args = ap.parse_args()

    runs = defaultdict(list)
    with open(args.records) as f:
        for line in f:
            r = json.loads(line)
            if args.rev and r["rev"] != args.rev:
                continue
            runs[(r["workload"], r["trace"])].append(r)
    if not runs:
        print("no records", file=sys.stderr)
        return 1

    for workload in sorted({w for w, _ in runs}):
        plain, traced = runs.get((workload, 0), []), runs.get((workload, 1), [])
        first = (plain or traced)[0]
        print(f"== {workload}: {len(plain)} untraced + {len(traced)} traced "
              f"runs, rev {first['rev']}, nproc {first['nproc']}, "
              f"OCaml {first['ocaml']}, server {' '.join(first['server_flags'])}")
        seeds = sorted({r["seed"] for r in plain + traced})
        print(f"   seeds {seeds}; steal s/run median "
              f"{statistics.median(r['steal_s'] for r in plain + traced):.2f}; "
              f"failed ops {sum(r['failed'] for r in plain + traced)}; "
              f"incorrect runs {sum(not r['correct'] for r in plain + traced)}")
        names = list(first["end_to_end"])
        print(f"   {'metric':24s} {'q1':>11s} {'median':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'traced':>11s} {'overhead':>8s}")
        for name in names:
            vals = [r["end_to_end"][name]["value"] for r in plain]
            tvals = [r["end_to_end"][name]["value"] for r in traced]
            unit = first["end_to_end"][name]["unit"]
            if vals:
                q1, med, q3 = quartiles(vals)
                spread = f"{(q3 - q1) / med:7.3f}" if med else "      -"
                row = f"{q1:11.5g} {med:11.5g} {q3:11.5g} {spread}"
            else:
                med, row = None, " " * 43
            if tvals:
                tmed = statistics.median(tvals)
                over = (f"{tmed / med - 1:+8.3f}" if med else "       -")
                row += f" {tmed:11.5g} {over}"
            print(f"   {name + ' (' + unit + ')':24s} {row}")
        if traced:
            print("   per-layer medians (traced runs):")
            for name, m in traced[0]["per_layer"].items():
                vals = [r["per_layer"][name]["value"] for r in traced]
                note = ""
                if m["unit"] == "count":
                    by_seed = defaultdict(set)
                    for r in traced:
                        by_seed[r["seed"]].add(r["per_layer"][name]["value"])
                    if any(len(v) > 1 for v in by_seed.values()):
                        note = "  (varies within a seed)"
                print(f"     {name:32s} {statistics.median(vals):12.6g} "
                      f"{m['unit']}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
