#!/usr/bin/env python3
"""Summarize a search trace: where the nodes went and when incumbents came.

Reads the file that ``palletpack solve --trace PATH`` writes (one JSON event
per line, read one line at a time) and prints, per depth, the nodes
expanded, those of them that ranked nothing (an ``expand`` event with
``candidates`` 0), the units skipped and the nodes pruned. Then it prints
how many skips each opening of a state made in a row: a node whose unit
fits nowhere skips to the next unit on the same state, and every node of
such a skip chain ranks that state again. A chain is counted once per
opening that expanded a node; an ``expand`` that directly follows a
``skip`` continues it. Last come the incumbents: the node that found each,
counting ``expand`` events from 1, and its volume. That is the anytime
curve in nodes rather than seconds.

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
    """From the trace's ``lines``: per depth, the count of each COUNTED
    event kind and of ``empty`` nodes (those that ranked nothing); how many
    openings made each number of skips in a row; and each incumbent's
    (node, volume)."""
    per_depth: dict[int, Counter] = {}
    chains: Counter = Counter()
    incumbents = []
    nodes = 0
    chain = None  # skips of the opening in progress, None before the first
    previous = None
    for line in lines:
        event = json.loads(line)
        kind = event["kind"]
        if kind in COUNTED:
            counts = per_depth.setdefault(event["depth"], Counter())
            counts[kind] += 1
            if kind == "expand":
                nodes += 1
                counts["empty"] += event["candidates"] == 0
                if previous != "skip":
                    if chain is not None:
                        chains[chain] += 1
                    chain = 0
            elif kind == "skip":
                chain += 1
        elif kind == "incumbent":
            incumbents.append((nodes, event["volume"]))
        previous = kind
    if chain is not None:
        chains[chain] += 1
    return per_depth, chains, incumbents


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace", type=Path, help="a file written by palletpack solve --trace")
    args = ap.parse_args(argv)
    with args.trace.open(encoding="utf-8") as fh:
        per_depth, chains, incumbents = report(fh)
    totals = sum(per_depth.values(), Counter())
    print(f"nodes {totals['expand']}, empty {totals['empty']}, skips {totals['skip']}, "
          f"prunes {totals['prune']}, incumbents {len(incumbents)}")
    print(f"{'depth':>5} {'nodes':>8} {'empty':>8} {'skips':>8} {'prunes':>8}")
    for depth in sorted(per_depth):
        counts = per_depth[depth]
        print(f"{depth:>5} {counts['expand']:>8} {counts['empty']:>8} {counts['skip']:>8} "
              f"{counts['prune']:>8}")
    print(f"{'chain':>5} {'openings':>8}")
    for length in sorted(chains):
        print(f"{length:>5} {chains[length]:>8}")
    print(f"{'incumbent':>9} {'node':>8} {'volume':>14}")
    for k, (node, volume) in enumerate(incumbents, 1):
        print(f"{k:>9} {node:>8} {volume:>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
