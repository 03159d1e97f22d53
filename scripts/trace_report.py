#!/usr/bin/env python3
"""Summarize a search trace: where the nodes went and when incumbents came.

Reads the file that ``palletpack solve --trace PATH`` writes (one JSON event
per line, read one line at a time) and prints the nodes expanded, units
skipped and nodes pruned per depth, then every incumbent: the node that
found it, counting ``expand`` events from 1, and its volume. That is the
anytime curve in nodes rather than seconds.

Example:
    palletpack solve instance.json --out solution.json --trace trace.jsonl
    python scripts/trace_report.py trace.jsonl
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

COUNTED = ("expand", "skip", "prune")


def report(lines):
    """Per depth, the count of each COUNTED event kind, and each
    incumbent's (node, volume), from the trace's ``lines``."""
    per_depth: dict[int, Counter] = {}
    incumbents = []
    nodes = 0
    for line in lines:
        event = json.loads(line)
        kind = event["kind"]
        if kind in COUNTED:
            per_depth.setdefault(event["depth"], Counter())[kind] += 1
            nodes += kind == "expand"
        elif kind == "incumbent":
            incumbents.append((nodes, event["volume"]))
    return per_depth, incumbents


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace", type=Path, help="a file written by palletpack solve --trace")
    args = ap.parse_args(argv)
    with args.trace.open(encoding="utf-8") as fh:
        per_depth, incumbents = report(fh)
    totals = sum(per_depth.values(), Counter())
    print(f"nodes {totals['expand']}, skips {totals['skip']}, prunes {totals['prune']}, "
          f"incumbents {len(incumbents)}")
    print(f"{'depth':>5} {'nodes':>8} {'skips':>8} {'prunes':>8}")
    for depth in sorted(per_depth):
        counts = per_depth[depth]
        print(f"{depth:>5} {counts['expand']:>8} {counts['skip']:>8} {counts['prune']:>8}")
    print(f"{'incumbent':>9} {'node':>8} {'volume':>14}")
    for k, (node, volume) in enumerate(incumbents, 1):
        print(f"{k:>9} {node:>8} {volume:>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
