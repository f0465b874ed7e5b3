#!/usr/bin/env python3
"""Builds the perf ledger from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload point_uniform --seed 1 --seconds 8 --trace 0

The ledger (perfbench/src) is configured in plain Release into .bench_build/
and rebuilt incrementally on every call; build output goes to stderr. The
last line of stdout is the ledger's JSON result: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics for --trace 0 and the
per-layer metrics for --trace 1. The metric names are checked against
BENCHMARK.json. Exits non-zero, printing no result, when the build fails or
the ledger's output is malformed; exits 1 after printing the result when the
correctness gate failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def build():
    """Configures and builds perf_ledger; returns its path."""
    # Compiler scratch files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perf_ledger",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return BUILD / "perf_ledger"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="point_uniform, insert_heavy, range_skew or "
                        "point_zipf_cached")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                        f"{HELD_OUT_SEED} is held out to confirm claims)")
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    if not proc.stdout.strip():
        return proc.returncode or 2  # the ledger printed its own error
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        print(proc.stdout, end="", file=sys.stderr)
        print(f"run.py: malformed ledger output ({err}), "
              f"exit {proc.returncode}", file=sys.stderr)
        return 2
    want = expected_metrics(args.trace)
    if got != want:
        print(f"run.py: metrics differ from BENCHMARK.json: missing "
              f"{sorted(want - got)}, unexpected {sorted(got - want)}",
              file=sys.stderr)
        return 2
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
