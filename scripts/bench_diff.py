#!/usr/bin/env python3
"""Exactness gate for committed bench artifacts.

Usage:
  scripts/bench_diff.py [--rename OLD=NEW ...] <committed.json> <fresh.json>

Flattens both JSON documents to dotted key paths and checks that every key
of the committed file reappears in the fresh one with exactly the same
value. A differing value or a missing key is printed and makes the script
exit 1. Keys that only the fresh file has (metric families added after the
file was committed) are counted but allowed. `--rename OLD=NEW` looks the
committed key OLD up as NEW in the fresh file, for a family that moved; its
value must still match.

The simulator is deterministic, so rerunning a committed configuration
must reproduce its file exactly: a difference is a behaviour change, not
noise.
"""

import argparse
import json
import sys


def flatten(obj, prefix=""):
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}.{key}" if prefix else key))
        return out
    if isinstance(obj, list):
        out = {}
        for i, value in enumerate(obj):
            out.update(flatten(value, f"{prefix}[{i}]"))
        return out
    return {prefix: obj}


def main():
    parser = argparse.ArgumentParser(
        description="Fail unless a fresh bench JSON reproduces a committed "
                    "one key for key.")
    parser.add_argument("committed")
    parser.add_argument("fresh")
    parser.add_argument("--rename", action="append", default=[],
                        metavar="OLD=NEW",
                        help="committed key OLD is named NEW in the fresh file")
    args = parser.parse_args()
    renames = dict(r.split("=", 1) for r in args.rename)

    with open(args.committed) as f:
        committed = flatten(json.load(f))
    with open(args.fresh) as f:
        fresh = flatten(json.load(f))

    diffs = []
    for key, before in committed.items():
        fresh_key = renames.get(key, key)
        after = fresh.get(fresh_key, "<missing>")
        if before != after:
            diffs.append(f"  {fresh_key}: {before!r} -> {after!r}")
    matched = {renames.get(k, k) for k in committed}
    added = sum(1 for k in fresh if k not in matched)
    if diffs:
        print(f"{args.fresh} differs from {args.committed} "
              f"in {len(diffs)} key(s):")
        print("\n".join(diffs))
        return 1
    print(f"{args.fresh} reproduces {args.committed}: {len(committed)} keys "
          f"identical, {added} new key(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
