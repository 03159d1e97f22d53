#!/usr/bin/env python3
"""A/B two source trees of the solver on the same node-budgeted trees.

Loads ``palletpack`` from two source directories into one process and
solves the same benchmark-shaped instances with both, alternating which
side goes first per instance; the ``stability`` shape adds the paper's
transport-stability rules, which no benchmark workload sets. Each solve
stops at a fixed node count (the ``max_nodes`` parameter, so both trees
must know it), not on the clock, so both sides should search the same
tree. Prints nodes/s and total solve seconds per side, in CPU time
(``time.process_time``: other processes on the machine do not inflate it
as they do wall time), and their B/A for each round, the median and
interquartile range of each B/A over the rounds, and whether placements,
nodes, prunes, ``candidates_evaluated`` and volume match instance for
instance in every round, naming each of those fields that does not, so a
change to the stats alone reads as one. For
a change that is meant to alter the tree, it also prints on how many
instances B loads less, the same or more volume than A, and B's total
volume over A's. For a change that opens fewer nodes, nodes/s measures
only the mix of the nodes left, and the B/A of solve seconds shows what
it saves.
``--reps N`` runs N rounds per workload and alternates which side starts
a round, for a change too small for one round to resolve. ``--seeds S
[S ...]`` runs those rounds on the instances of each seed in turn and then
prints, per workload, the median and interquartile range of B/A pooled
over every round of every seed, and whether the trees were identical on
every seed: a difference of 1-2% needs several seeds to tell from the
instances' own spread. ``--nodes N`` stops every solve at N nodes instead
of the workload's own budget (exact-small has none: its trees are
searched to completion). ``--both-orders`` loads both trees a second
time, B first, and runs every round in that order too: an A/A of one tree
against a copy of itself can read 2% off 1.000 in one order, so a claim
of 1-2% needs both. B/A is always B's tree over A's; per workload it
prints the pooled B/A of each order and the geometric mean of their
medians, and whether the trees were identical in each order.

Example (the parent commit checked out into ../parent):
    python scripts/same_tree_ab.py ../parent/src src --seeds 4 5 6 --reps 4
    python scripts/same_tree_ab.py ../parent/src src --seeds 4 5 6 --reps 2 --both-orders
"""

import argparse
import importlib
import json
import math
import os
import random
import statistics
import sys
import time

# The fields of one solve that both sides must match, in the order solve_round keeps them.
FIELDS = ("placements", "nodes", "prunes", "candidates_evaluated", "volume")
# The label of each order in which the two trees are loaded.
ORDERS = ("A loaded first", "B loaded first")

# name: (pallet, units, unit side range, params, instances, node budget or None)
SHAPES = {
    "exact-small": ((1200, 800, 1500), 6, (300, 700),
                    {"vertical_support_min": 0.7, "max_branches": 4}, 300, None),
    "anytime-deep": ((1200, 800, 1500), 150, (50, 200),
                     {"vertical_support_min": 0.7, "gap_tolerance": 5}, 4, 300),
    "tight-bound": ((400, 300, 400), 40, (60, 200),
                    {"vertical_support_min": 1.0, "bound_mode": "exact_knapsack"}, 12, 3000),
    # anytime-deep's shape under the paper's transport-stability rules:
    # horizontal support and coplanar tolerances, with a gap.
    "stability": ((1200, 800, 1500), 150, (50, 200),
                  {"vertical_support_min": 0.7, "gap_tolerance": 5,
                   "horizontal_support_min_x": 0.3, "horizontal_support_min_y": 0.3,
                   "p_x": 5, "p_y": 5, "p_z": 5}, 4, 300),
}


def load(src):
    """The ``files`` and ``search`` modules of the tree under ``src``."""
    src = os.path.abspath(src)
    for name in [m for m in sys.modules if m.split(".")[0] == "palletpack"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        files, search = (importlib.import_module(f"palletpack.{m}") for m in ("files", "search"))
    finally:
        sys.path.remove(src)
    if not search.__file__.startswith(src + os.sep):
        raise SystemExit(f"palletpack came from {search.__file__}, not from {src}")
    return files, search


def texts(name, seed, budget):
    """The workload's instances of ``seed``, each solve stopped after
    ``budget`` nodes (``max_nodes``) if it is set."""
    (w, d, h), n, (lo, hi), params, count, _ = SHAPES[name]
    if budget is not None:
        params = {**params, "max_nodes": budget}
    rng = random.Random(f"{name}:{seed}")
    return [json.dumps({
        "pallet": {"width": w, "depth": d, "max_height": h},
        "units": [{"id": f"u{i:03d}", "w": rng.randint(lo, hi), "d": rng.randint(lo, hi),
                   "h": rng.randint(lo, hi)} for i in range(n)],
        "params": params,
    }) for _ in range(count)]


def solve_round(sides, texts_, first):
    """Solve every instance on both sides, side ``first`` first on even
    instances; nodes/s and total solve seconds per side, and each side's
    trees."""
    nodes, secs, trees = [0, 0], [0.0, 0.0], [[], []]
    for i, text in enumerate(texts_):
        for s in ((first, 1 - first) if i % 2 == 0 else (1 - first, first)):
            files, search = sides[s]
            inst = files.parse_instance(text)
            started = time.process_time()
            sol = search.solve(inst.units, inst.pallet, inst.params)
            secs[s] += time.process_time() - started
            st = sol.stats
            nodes[s] += st.nodes_expanded
            trees[s].append((
                [(p.unit_id, p.position, p.rotated) for p in sol.placements],
                st.nodes_expanded, st.nodes_pruned_by_bound, st.candidates_evaluated,
                sol.placed_volume))
    return [nodes[s] / secs[s] for s in (0, 1)], secs, trees


def summary(ratios):
    """The median of ``ratios`` and, for two or more, their quartiles and IQR."""
    text = f"B/A median {statistics.median(ratios):.3f}"
    if len(ratios) >= 2:
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        text += f", quartiles {q1:.3f}-{q3:.3f} (IQR {q3 - q1:.3f})"
    return text


def differing(rounds):
    """The FIELDS in which some round's trees differ from the first round's."""
    return [name for i, name in enumerate(FIELDS)
            if any(t[i] != f[i] for trees in rounds for t, f in zip(trees, rounds[0]))]


def verdict(fields, where=""):
    """'identical', or which of the FIELDS in ``fields`` differ."""
    named = [name for name in FIELDS if name in fields]
    return f"identical{where}" if not named else f"DIFFERENT in {', '.join(named)}"


def nodes(a, b):
    """The nodes each side expanded over one round's trees ``a`` and ``b``."""
    na, nb = (sum(t[1] for t in trees) for trees in (a, b))
    return f"{na:,} nodes per side" if na == nb else f"A {na:,} nodes, B {nb:,} nodes"


def volumes(pairs):
    """How many (A, B) volume pairs have B lower, equal and higher, and B's
    total over A's."""
    lower = sum(b < a for a, b in pairs)
    higher = sum(b > a for a, b in pairs)
    total_a = sum(a for a, _ in pairs)
    ratio = sum(b for _, b in pairs) / total_a if total_a else float("nan")
    return (f"volume B lower on {lower}, equal on {len(pairs) - lower - higher}, "
            f"higher on {higher} of {len(pairs)} instances, total B/A {ratio:.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="source directory of side A (holds palletpack/)")
    ap.add_argument("b", help="source directory of side B")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1],
                    help="instance seeds, each run in turn and then pooled")
    ap.add_argument("--workloads", nargs="+", default=list(SHAPES), choices=list(SHAPES))
    ap.add_argument("--reps", type=int, default=1,
                    help="rounds per workload, alternating which side starts a round")
    ap.add_argument("--nodes", type=int, default=None,
                    help="node budget of every solve, overriding the workload's own")
    ap.add_argument("--both-orders", action="store_true",
                    help="also run every round with the trees loaded B first")
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    if args.nodes is not None and args.nodes < 1:
        ap.error("--nodes must be at least 1")
    # Per order, the two sides as (A, B); the second order loads B first.
    orders = [[load(args.a), load(args.b)]]
    if args.both_orders:
        b, a = load(args.b), load(args.a)
        orders.append([a, b])
    for name in args.workloads:
        budget = SHAPES[name][5] if args.nodes is None else args.nodes
        pooled = [[] for _ in orders]
        pooled_secs, all_differ, all_volumes = [], set(), []
        order_differ = [set() for _ in orders]
        for seed in args.seeds:
            cases = texts(name, seed, budget)
            ratios, sec_ratios, by_order = [], [], [[] for _ in orders]
            for r in range(args.reps):
                for o, sides in enumerate(orders):
                    # The side loaded first also starts the first round, as
                    # when the script is run with A and B swapped.
                    rate, secs, trees = solve_round(sides, cases, r % 2 if o == 0 else 1 - r % 2)
                    ratios.append(rate[1] / rate[0])
                    sec_ratios.append(secs[1] / secs[0])
                    pooled[o].append(ratios[-1])
                    by_order[o] += trees
                    label = f" ({ORDERS[o]})" if args.both_orders else ""
                    print(f"{name:13} seed {seed} round {r + 1}{label}: A {rate[0]:9,.0f} nodes/s  "
                          f"B {rate[1]:9,.0f} nodes/s  B/A {ratios[-1]:.3f}; "
                          f"A {secs[0]:.3f} s  B {secs[1]:.3f} s  B/A {sec_ratios[-1]:.3f}")
            rounds = sum(by_order, [])
            differ = differing(rounds)
            for o, trees in enumerate(by_order):
                order_differ[o].update(differing(trees))
            pairs = [(a[-1], b[-1]) for a, b in zip(rounds[0], rounds[1])]
            print(f"{name:13} seed {seed}: nodes/s {summary(ratios)}, solve seconds "
                  f"{summary(sec_ratios)} over {len(ratios)} round(s), "
                  f"trees {verdict(differ)} ({len(cases)} instances, "
                  f"{nodes(rounds[0], rounds[1])} a round); "
                  f"{volumes(pairs)}")
            pooled_secs += sec_ratios
            all_volumes += pairs
            all_differ.update(differ)
        every = sum(pooled, [])
        if len(args.seeds) >= 2:
            print(f"{name:13} seeds {' '.join(map(str, args.seeds))}: nodes/s {summary(every)}, "
                  f"solve seconds {summary(pooled_secs)} over {len(every)} rounds, trees "
                  f"{verdict(all_differ, ' on every seed')}; "
                  f"{volumes(all_volumes)}")
        if args.both_orders:
            medians = [statistics.median(ratios) for ratios in pooled]
            for o, ratios in enumerate(pooled):
                print(f"{name:13} {ORDERS[o]}: nodes/s {summary(ratios)} over {len(ratios)} "
                      f"rounds, trees {verdict(order_differ[o])}")
            print(f"{name:13} both orders: nodes/s B/A geometric mean "
                  f"{math.sqrt(medians[0] * medians[1]):.3f} of the medians "
                  f"{medians[0]:.3f} and {medians[1]:.3f}, trees "
                  f"{verdict(all_differ, ' in both orders')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
