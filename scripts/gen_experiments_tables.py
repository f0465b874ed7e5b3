#!/usr/bin/env python3
"""Regenerates EXPERIMENTS.md's tables from committed bench JSON.

Usage (from the repository root):
  scripts/gen_experiments_tables.py          # rewrite EXPERIMENTS.md in place
  scripts/gen_experiments_tables.py --check  # exit 1 if it is out of date

Each generated table sits between a pair of marker comments:

  <!-- BEGIN GENERATED <name> -->
  ...
  <!-- END GENERATED <name> -->

and is rendered from one committed file:

  client_cache   "Appendix A.4 — caching", from BENCH_client_cache.json
                 (bench/ablate_client_cache --json)
  design_matrix  the design-space matrix, from BENCH_design_matrix.json
                 (bench/design_space_matrix --json)

Everything outside the markers is left untouched. --check prints a diff of
the stale blocks and exits 1, so a table can never drift from its file.
"""

import argparse
import difflib
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "EXPERIMENTS.md"


def rate(value):
    """Ops/s with three significant figures: 1.33M, 454K, 38.5K, 9.33K."""
    for scale, suffix in ((1e6, "M"), (1e3, "K")):
        if value >= scale:
            scaled = value / scale
            digits = 2 if scaled < 10 else 1 if scaled < 100 else 0
            return f"{scaled:.{digits}f}{suffix}"
    return f"{value:.0f}"


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def client_cache_table():
    report = json.loads((ROOT / "BENCH_client_cache.json").read_text())
    labels = (("off", "off"), ("ttl_500us", "TTL 0.5ms"),
              ("ttl_2ms", "TTL 2ms"), ("ttl_inf", "TTL ∞"))
    rows = []
    for key, label in labels:
        point = report["A_point"][key]
        insert = report["D_50pct_insert"][key]
        hot = report["D_hot_insert"][key]
        hit_rate = point.get("hit_rate")
        rows.append([label, rate(point["ops_per_s"]),
                     f"{point['round_trips_per_op']:.1f}",
                     "—" if hit_rate is None else f"{hit_rate:.2f}",
                     rate(insert["ops_per_s"]), rate(hot["ops_per_s"]),
                     f"{hot['round_trips_per_op']:.2f}"])
    return table(["cache", "FG point ops/s", "round trips/op", "hit rate",
                  "FG 50% insert ops/s", "FG hot insert ops/s",
                  "hot round trips/op"], rows)


def design_matrix_table():
    report = json.loads((ROOT / "BENCH_design_matrix.json").read_text())
    designs = (("coarse_grained", "coarse/2-sided (D1)"),
               ("coarse_one_sided", "coarse/1-sided (D4)"),
               ("fine_grained", "fine/1-sided (D2)"),
               ("hybrid", "hybrid (D3)"))
    cells = ("point_uniform", "point_skew", "range_1pct_uniform",
             "range_1pct_skew", "insert_heavy_uniform")
    rows = [[label] + [rate(report[key][cell]) for cell in cells]
            for key, label in designs]
    return table(["design", "point unif", "point skew", "range 0.01 unif",
                  "range 0.01 skew", "insert mix"], rows)


GENERATORS = {
    "client_cache": client_cache_table,
    "design_matrix": design_matrix_table,
}


def render(text):
    """Returns `text` with every generated block refilled."""
    for name, generate in GENERATORS.items():
        pattern = re.compile(
            rf"(<!-- BEGIN GENERATED {name} -->\n).*?"
            rf"(<!-- END GENERATED {name} -->)", re.S)
        if not pattern.search(text):
            sys.exit(f"{DOC.name}: no marker pair for '{name}'")
        block = generate()
        text = pattern.sub(lambda m: m.group(1) + block + "\n" + m.group(2),
                           text)
    return text


def main():
    parser = argparse.ArgumentParser(
        description="Regenerate EXPERIMENTS.md tables from bench JSON.")
    parser.add_argument("--check", action="store_true",
                        help="fail instead of rewriting when out of date")
    args = parser.parse_args()

    current = DOC.read_text()
    fresh = render(current)
    if fresh == current:
        return 0
    if args.check:
        sys.stdout.writelines(difflib.unified_diff(
            current.splitlines(keepends=True), fresh.splitlines(keepends=True),
            f"{DOC.name} (committed)", f"{DOC.name} (generated)"))
        print(f"{DOC.name} is stale: run scripts/gen_experiments_tables.py",
              file=sys.stderr)
        return 1
    DOC.write_text(fresh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
