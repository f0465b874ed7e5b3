#!/usr/bin/env python3
"""Runs one workload K times and reports each metric's run-to-run spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload range_skew --runs 10 --first-seed 1
    python3 perfbench/spread.py --workload insert_heavy --runs 2 --same-seed --trace 1

Each run calls perfbench/run.py with its own seed (first-seed, first-seed+1,
...), or with first-seed every time under --same-seed. For every metric the
table shows the median, the quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, the worst deviation |v - median| / median, the
metric's bound from BENCHMARK.json, and a verdict: "ok" when the spread is
below a third of the bound, "NOISY" when it is not, "-" for per-layer
metrics (they have no bound). Under --same-seed every metric that is not
host-timed (virtual time and counts, end-to-end or per-layer) must repeat
exactly; the table flags any that did not. Exits 1 when a run fails, a
bounded metric is noisy, or a metric did not repeat.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_timed(name, unit):
    """True for metrics read off the host's clock or memory, which may vary
    between runs of one seed; every other metric is virtual time or a count
    and must repeat exactly."""
    return (unit in ("s", "MB") or "host" in name
            or name.startswith(("sim.bare_", "ledger.")))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"spread.py: run with seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"spread.py: run with seed {seed} failed its gate")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    walls = []
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        start = time.monotonic()
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        walls.append(time.monotonic() - start)
        print(f"run {i + 1}/{args.runs} (seed {seed}) took {walls[-1]:.1f} s",
              file=sys.stderr)

    noisy = False
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'worst':>8} {'bound':>6}  verdict")
    for name, first in runs[0].items():
        values = [r[name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / median if median else 0.0
        worst = max(abs(v - median) for v in values) / median if median else 0.0
        bound = bounds.get(name)
        if bound is None:
            verdict = "-"
        elif spread < bound / 3:
            verdict = "ok"
        else:
            verdict, noisy = "NOISY", True
        if (args.same_seed and not host_timed(name, first["unit"])
                and len(set(values)) != 1):
            verdict, noisy = "NOT REPEATED", True
        print(f"{name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.2%} {worst:8.2%} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    print(f"wall seconds per run: median {statistics.median(walls):.1f}, "
          f"max {max(walls):.1f}")
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
