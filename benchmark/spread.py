#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, measured the way the driver does.

Runs the `command` of BENCHMARK.json `--runs` times per workload, each time
with another `--seed`, and prints for every (workload, end-to-end metric)
the median and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound. The benchmark is steady when every spread except that of
`setup_s` is below a third of its bound.

Run from the repo root:  python3 benchmark/spread.py [--runs 10] [--out FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every run's metrics here as JSON")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    values = {}
    for run in range(args.runs):
        for w in spec["workloads"]:
            cmd = spec["command"] + [
                "--workload", w["name"],
                "--seed", str(args.first_seed + run),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w['name']} seed {args.first_seed + run}: {result['failed']} failed")
            for name, m in result["metrics"].items():
                values.setdefault((w["name"], name), []).append(m["value"])
            print(f"run {run} {w['name']} done", file=sys.stderr)

    steady = True
    print(f"{'workload':<22} {'metric':<24} {'median':>16} {'spread':>8} {'bound':>6}")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            v = values[(w["name"], m["name"])]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            wide = m["name"] != "setup_s" and spread >= m["bound"] / 3
            steady &= not wide
            print(f"{w['name']:<22} {m['name']:<24} {med:>16.6f} {spread:>8.4f} {m['bound']:>6.2f}"
                  + ("  WIDE" if wide else ""))
    if args.out:
        json.dump({f"{w}/{m}": v for (w, m), v in values.items()}, open(args.out, "w"), indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
