import dataclasses
import hashlib
import inspect
import json
import math
import random
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from palletpack import model, search
from palletpack.extreme_points import generate
from palletpack.feasibility import check_placement
from palletpack.files import build_solution_file, parse_instance, validate_solution
from palletpack.flatstate import FlatState
from palletpack.grid import unused_volume
from palletpack.model import (
    Dims,
    PackingState,
    Pallet,
    Placement,
    SolverParams,
    TransportUnit,
    oriented,
)
from palletpack.search import solve, solve_with_trace

from conftest import random_solver_instance, set_index
from reference.bounds import node_upper_bound
from reference.oracle import MAX_UNITS, exhaustive_solve
from reference.ranking import rank_and_cut, scored_candidates

P0 = SolverParams(vertical_support_min=0.0, max_branches=10**6, time_limit_ms=10**9)


def _unit(i, w, d, h):
    return TransportUnit(f"u{i}", Dims(w, d, h), i)


def _state_of(searcher):
    """The searcher's boxes as a PackingState of placements built afresh."""
    return PackingState(tuple(
        Placement(unit.id, position, oriented(unit, rotated), rotated)
        for unit, position, rotated in searcher.placed
    ), searcher.pallet)


def test_single_unit_placed_at_origin(pallet_4x3x10):
    sol = solve([_unit(0, 2, 2, 1)], pallet_4x3x10, P0)
    assert len(sol.placements) == 1
    assert sol.placements[0].position == (0, 0, 0)
    assert sol.placed_volume == 4
    assert sol.utilization == 4 / 120


def test_oversized_unit_yields_empty_solution(pallet_4x3x10):
    sol = solve([_unit(0, 5, 5, 5)], pallet_4x3x10, P0)
    assert sol.placements == ()
    assert sol.placed_volume == 0
    assert sol.utilization == 0.0


def test_three_unit_stack_reaches_optimum():
    pal = Pallet(4, 2, 2)
    units = [_unit(i, 2, 2, 1) for i in range(3)]
    sol = solve(units, pal, P0)
    oracle = exhaustive_solve(units, pal, P0)
    assert sol.placed_volume == 12
    assert oracle.placed_volume == 12


def test_rotation_is_used_when_needed():
    pal = Pallet(2, 4, 5)
    sol = solve([_unit(0, 4, 2, 1)], pal, P0)
    assert len(sol.placements) == 1
    assert sol.placements[0].rotated
    assert sol.placements[0].oriented_dims == Dims(2, 4, 1)


def test_solve_is_deterministic():
    rng = random.Random(99)
    units, pallet, params = random_solver_instance(rng, max_units=5)
    a = solve(units, pallet, params)
    b = solve(units, pallet, params)
    assert a.placements == b.placements
    assert a.placed_volume == b.placed_volume
    assert a.utilization == b.utilization
    sa = dataclasses.replace(a.stats, elapsed_ms=0)
    sb = dataclasses.replace(b.stats, elapsed_ms=0)
    assert sa == sb


def test_placements_respect_picking_order():
    rng = random.Random(4)
    for _ in range(20):
        units, pallet, params = random_solver_instance(rng, max_units=6)
        sol = solve(units, pallet, params)
        order = {u.id: u.order_index for u in units}
        indices = [order[pl.unit_id] for pl in sol.placements]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)


def test_every_solution_revalidates():
    rng = random.Random(12)
    for _ in range(20):
        units, pallet, params = random_solver_instance(rng, max_units=6)
        sol = solve(units, pallet, params)
        by_id = {u.id: u for u in units}
        state = PackingState.empty(pallet)
        for pl in sol.placements:
            dims = oriented(by_id[pl.unit_id], pl.rotated)
            assert dims == pl.oriented_dims
            report = check_placement(state, pl.position, dims, params)
            assert report.feasible
            state = state.with_placement(pl)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_placement_lies_at_or_above_the_envelope_before_it(data):
    # Units are loaded from above: no earlier unit whose top lies above a
    # placement's bottom overlaps its footprint.
    pallet = Pallet(*(data.draw(st.integers(2, 8)) for _ in range(3)))
    side = st.integers(1, 5)
    units = [_unit(i, *data.draw(st.tuples(side, side, side)))
             for i in range(data.draw(st.integers(1, 6)))]
    params = dataclasses.replace(
        P0, vertical_support_min=data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0])),
        max_branches=data.draw(st.sampled_from([1, 2, 4, 10**6])))
    placements = solve(units, pallet, params).placements
    for k, p in enumerate(placements):
        for q in placements[:k]:
            if p.x < q.x2 and q.x < p.x2 and p.y < q.y2 and q.y < p.y2:
                assert p.z >= q.z2


def test_solve_matches_exhaustive_oracle_small_batch():
    rng = random.Random(21)
    for _ in range(15):
        units, pallet, params = random_solver_instance(rng, max_units=4)
        sol = solve(units, pallet, params)
        oracle = exhaustive_solve(units, pallet, params)
        assert sol.placed_volume == oracle.placed_volume
        assert sol.placements == oracle.placements


@pytest.mark.parametrize("mode", ["exact_knapsack", "lp_relaxation"])
def test_pruning_is_safe_at_the_default_branch_cap(mode):
    rng = random.Random(303)
    for _ in range(100):
        units, pallet, params = random_solver_instance(rng, max_units=6)
        params = dataclasses.replace(params, max_branches=4, bound_mode=mode)
        sol = solve(units, pallet, params)
        oracle = exhaustive_solve(units, pallet, params)
        assert sol.placed_volume == oracle.placed_volume
        assert sol.placements == oracle.placements


def _budgeted(units, pallet, params, budget):
    """The solution of a search stopped after ``budget`` expanded nodes."""
    return solve(units, pallet, dataclasses.replace(params, max_nodes=budget))


def _tight_instance(seed):
    """40 units on a small pallet, shaped like the tight-bound benchmark
    workload: most nodes skip, and many units are left that cannot all fit."""
    rng = random.Random(seed)
    units = [
        TransportUnit(f"u{i}", Dims(rng.randint(60, 200), rng.randint(60, 200),
                                    rng.randint(60, 200)), i)
        for i in range(40)
    ]
    return units, Pallet(400, 300, 400)


def _deep_instance(seed):
    """150 units of 50-200 mm on a 1200x800x1500 pallet, shaped like the
    anytime-deep benchmark workload: the first dive places nearly all of
    them, so its states hold up to 149 boxes."""
    rng = random.Random(seed)
    units = [
        TransportUnit(f"u{i}", Dims(rng.randint(50, 200), rng.randint(50, 200),
                                    rng.randint(50, 200)), i)
        for i in range(150)
    ]
    return units, Pallet(1200, 800, 1500)


DEEP_PARAMS = SolverParams(vertical_support_min=0.7, gap_tolerance=5)


def test_searcher_ranking_equals_the_reference_ranking(monkeypatch):
    # At every node, the flat state's candidates, feasibility and scores
    # must rank exactly as generate/check_placement/evaluate on a
    # PackingState of the same placements do.
    fast = search._Searcher._ranked_candidates
    checked = screened = cut = 0

    def ranked(self, unit):
        nonlocal checked, screened, cut
        got = fast(self, unit)
        state = _state_of(self)
        reference = rank_and_cut(scored_candidates(state, unit, self.params),
                                 self.params.max_branches)
        assert got == reference
        checked += 1
        # a state whose live map holds fewer points than its candidates
        screened += len(self.state._live) < len(generate(state))
        # a state that keeps the footprints below a height where two boxes'
        # footprints overlap, and so keeps one as its parts outside the other
        boxes, gap = self.state.boxes, self.params.gap_tolerance
        cut += any(a[0] < b[3] and b[0] < a[3] and a[1] < b[4] and b[1] < a[4]
                   for z in self.state._below
                   for i, a in enumerate(boxes) if 0 <= z - a[5] <= gap
                   for b in boxes[i + 1:] if 0 <= z - b[5] <= gap)
        return got

    monkeypatch.setattr(search._Searcher, "_ranked_candidates", ranked)
    # criterion 3's instances and more of their kind: the rest bound keeps
    # most of their nodes closed, so 100 instances now open fewer than 500
    rng = random.Random(303)
    nodes = 0
    for _ in range(250):
        units, pallet, params = random_solver_instance(rng, max_units=6)
        nodes += solve(units, pallet, params).stats.nodes_expanded
    assert checked == nodes > 1000
    # A gap of 1 lets a unit 1 high stand within it on another: 17 of the
    # 1,514 nodes keep such a height.
    assert cut > 0
    # Most tight-bound and deep states have candidates inside or under a box.
    for (units, pallet), params, budget in (
        (_tight_instance(27), SolverParams(vertical_support_min=1.0), 300),
        (_deep_instance(8), DEEP_PARAMS, 120),
    ):
        before = checked, screened
        _budgeted(units, pallet, params, budget)
        assert checked - before[0] == budget
        assert screened - before[1] > budget * 9 // 10


def _tree_digest(sol):
    st = sol.stats
    return hashlib.sha256(repr((
        [(pl.unit_id, pl.position, pl.rotated) for pl in sol.placements],
        st.nodes_pruned_by_bound, st.candidates_evaluated,
    )).encode()).hexdigest()


@pytest.mark.parametrize("instance,params,budget,digest", [
    # 149 of 150 units placed, 130 prunes, 6,604 candidates evaluated
    (_deep_instance(8), DEEP_PARAMS, 300,
     "2844e1674a2992a500a8e95f4f7b5cf8c6c76ac99c474b3451c35e01211e001c"),
    # 14 units placed, 162 prunes, 603 candidates evaluated
    (_tight_instance(27), SolverParams(vertical_support_min=1.0), 3000,
     "dccc09d54380b9b8f5dae91a3bea70530f0c7ad0f78bbd7cfe50e9fd9ee90a11"),
], ids=["anytime-deep", "tight-bound"])
def test_deep_budgeted_tree_is_pinned(instance, params, budget, digest):
    # Both digests were re-recorded when the rest bound began to keep nodes
    # closed, which changed their prunes and candidates evaluated but not
    # their placements. Those of anytime-deep date from when nothing could
    # be loaded under an overhang any more, those of tight-bound from before
    # the free rays were kept up to date across push and pop (full support
    # leaves no overhang): the state's fast paths must leave the tree
    # exactly as it was.
    units, pallet = instance
    sol = _budgeted(units, pallet, params, budget)
    assert sol.stats.nodes_expanded == budget
    assert _tree_digest(sol) == digest


# Parameters the benchmark never sets: a wide gap (the halo's low sides),
# horizontal support (boxes that back a face within the gap) and coplanar
# tolerances (boxes that score without touching).
ODD_PARAMS = [
    SolverParams(vertical_support_min=0.6, horizontal_support_min_x=0.3,
                 horizontal_support_min_y=0.3, gap_tolerance=20, p_x=15, p_y=15, p_z=15),
    SolverParams(vertical_support_min=0.5, horizontal_support_min_x=0.2, gap_tolerance=8,
                 p_y=30, p_z=5),
    SolverParams(vertical_support_min=0.7, horizontal_support_min_y=0.4, gap_tolerance=40,
                 p_x=40, p_z=40),
]


def test_box_index_leaves_the_deep_tree_as_it_was(monkeypatch):
    # Boxes indexed from the first push or never: the same placements,
    # prunes and candidates evaluated. The 150-node dive pops no box, so
    # every push inserts into the index; the 300-node search pops 169 boxes,
    # from states of 127-149, each deleted from it.
    for budget in (150, 300):
        digests = []
        for indexed in (True, False):
            set_index(monkeypatch, indexed)
            sol = _budgeted(*_deep_instance(8), DEEP_PARAMS, budget)
            assert sol.stats.nodes_expanded == budget
            digests.append(_tree_digest(sol))
        assert digests[0] == digests[1]


def test_an_instance_of_16_units_is_indexed_from_its_first_push(monkeypatch):
    # The first 15 and the first 16 units of a deep instance: the state of
    # the 15 has no index, and that of the 16 an empty one before its first
    # push; each reaches the same tree with its boxes indexed the other way.
    units, pallet = _deep_instance(8)
    params = dataclasses.replace(DEEP_PARAMS, max_nodes=150)
    for n in (15, 16):
        searcher = search._Searcher(units[:n], pallet, params)
        assert searcher.state._index == (
            None if n < 16 else ([], ([], []), ([], []), ([], [])))
        digest = _tree_digest(searcher.run())
        with pytest.MonkeyPatch.context() as mp:
            set_index(mp, n < 16)
            assert _tree_digest(solve(units[:n], pallet, params)) == digest


@pytest.mark.parametrize("params", ODD_PARAMS, ids=["all", "x-support", "y-support"])
def test_sibling_memo_leaves_the_deep_tree_as_it_was(monkeypatch, params):
    # Named for the sibling memo it once also toggled: boxes indexed from
    # the first push, or never, under the stability rules: the same
    # placements, prunes and candidates evaluated. (Seed 4: under y-support,
    # seed 3's complete search ends at 167 nodes.)
    digests = []
    for indexed in (True, False):
        set_index(monkeypatch, indexed)
        sol = _budgeted(*_deep_instance(4), params, 200)
        assert sol.stats.nodes_expanded == 200
        digests.append(_tree_digest(sol))
    assert digests[0] == digests[1]


def test_ranking_stops_at_the_cut_as_the_reference(monkeypatch):
    # Every state indexed, under the stability rules, at branch caps of 1, 4
    # and none: at every node the pairs kept must be the reference's best,
    # from generate/check_placement/evaluate on the same placements.
    set_index(monkeypatch, True)
    fast = search._Searcher._ranked_candidates
    fits = FlatState._fits
    asked: list[bool] = []  # _fits() answers of the current node, in order
    skipped = stopped = deep = 0

    def ranked(self, unit):
        nonlocal skipped, stopped, deep
        asked.clear()
        scored = self.state.pairs_scored
        got = fast(self, unit)
        state = _state_of(self)
        assert got == rank_and_cut(scored_candidates(state, unit, self.params),
                                   self.params.max_branches)
        # _fits() rejected a pair ranked above the last one kept
        skipped += True in asked and False in asked[:len(asked) - asked[::-1].index(True)]
        # _fits() was not asked about every pair scored
        stopped += len(asked) < self.state.pairs_scored - scored
        deep += len(self.placed) > 16
        return got

    def counted_fits(self, *pair):
        answer = fits(self, *pair)
        asked.append(answer)
        return answer

    monkeypatch.setattr(search._Searcher, "_ranked_candidates", ranked)
    monkeypatch.setattr(FlatState, "_fits", counted_fits)
    units, _ = _deep_instance(5)
    # 40 units on a pallet of a fifteenth of the volume: more than fits, so
    # every search reaches its budget. (On the full pallet the first dive
    # places all of the first 30 units under most of these rules, and the
    # rest bound then closes every node after it.)
    pallet = Pallet(600, 400, 400)
    for params in ODD_PARAMS:
        for cut in (1, 4, 10**6):
            _budgeted(units[:40], pallet, dataclasses.replace(params, max_branches=cut), 200)
    # Of 1,800 nodes, 544 skip a rejected pair, 515 stop before the last
    # pair scored and 1,363 hold more than 16 boxes.
    assert skipped > 500
    assert stopped > 300
    assert deep > 500


class _NoRestBound(search._Searcher):
    """The searcher with the rest stage of ``_closed`` switched off: in the
    exact mode, the fills and the kernel decide every node, sibling and
    root. (In the LP mode the stages after it take the capacity as the
    bound, which is the LP value only past the rest stage.)"""

    def __init__(self, *args):
        super().__init__(*args)
        self.rest = [math.inf] * len(self.rest)


def _exact_small_instance(rng):
    """Six units of 300-700 mm on a 1200x800x1500 pallet at a branch cap of
    4, shaped like the exact-small benchmark workload."""
    units = [_unit(i, *(rng.randint(300, 700) for _ in range(3))) for i in range(6)]
    return units, Pallet(1200, 800, 1500), SolverParams(vertical_support_min=0.7,
                                                         max_branches=4)


def _same_tree(a, b):
    """Whether two solves placed the same and searched the same tree."""
    return (a.placements == b.placements
            and dataclasses.replace(a.stats, elapsed_ms=0)
            == dataclasses.replace(b.stats, elapsed_ms=0))


def test_rest_bound_keeps_complete_searches_as_they_were():
    # The rest stage only shortcuts the decision of the stages after it: a
    # sum of volumes that cannot beat the incumbent leaves the kernel no
    # more, and neither does the capacity it returns when the work cap
    # trips, which lies below that sum. So the trees are the same.
    rng = random.Random(1919)
    for make in [_overhang_instance] * 60 + [_exact_small_instance] * 60:
        units, pallet, params = make(rng)
        sol = solve(units, pallet, params)
        assert _same_tree(sol, _NoRestBound(units, pallet, params, None).run())
        assert sol.placements == exhaustive_solve(units, pallet, params).placements


@pytest.mark.parametrize("budget", [300, 3000])
def test_rest_bound_loads_no_less_at_a_node_budget(budget):
    # Under a node budget too, the rest stage leaves the tree as it was.
    cases = [(*_deep_instance(seed), DEEP_PARAMS) for seed in (8, 100)]
    cases += [(*_tight_instance(seed), SolverParams(vertical_support_min=1.0))
              for seed in (27, 28, 29)]
    if budget < 1000:  # the stability rules take 7 s at 3,000 nodes
        cases.append((*_deep_instance(3), ODD_PARAMS[0]))
    for units, pallet, params in cases:
        params = dataclasses.replace(params, max_nodes=budget)
        sol = solve(units, pallet, params)
        assert _same_tree(sol, _NoRestBound(units, pallet, params, None).run())


def test_trace_single_unit(pallet_4x3x10):
    _, trace = solve_with_trace([_unit(0, 2, 2, 1)], pallet_4x3x10, P0)
    kinds = [e.kind for e in trace]
    assert kinds.count("place") == 1
    assert kinds.count("incumbent") == 1


def test_trace_skip_when_second_unit_never_fits(pallet_4x3x10):
    # wide but low-volume, so descent is not cut off by the bound
    units = [_unit(0, 2, 2, 1), _unit(1, 5, 1, 1)]
    _, trace = solve_with_trace(units, pallet_4x3x10, P0)
    skips = [e for e in trace if e.kind == "skip"]
    assert skips and all(e.unit_id == "u1" for e in skips)
    descents = [e for e in trace if e.kind == "place" and e.purpose == "descend"]
    assert len(skips) == len(descents)


def test_trace_prune_cuts_descent(pallet_4x3x10):
    # root pass places everything; the later root with the tiny remainder
    # cannot beat it and is bounded out
    # (by the rest bound: the units left sum to 2, and the search ends there)
    units = [_unit(0, 4, 3, 9), _unit(1, 1, 1, 1), _unit(2, 1, 1, 1)]
    sol, trace = solve_with_trace(units, pallet_4x3x10, P0)
    oracle = exhaustive_solve(units, pallet_4x3x10, P0)
    assert sol.placed_volume == oracle.placed_volume
    prunes = [i for i, e in enumerate(trace) if e.kind == "prune"]
    assert prunes
    assert trace[-1].kind == "prune" and trace[-1].order_index == 1
    assert trace[-1].depth == 0 and trace[-1].upper_bound == 2
    for i in prunes[:-1]:
        following = trace[i + 1]
        assert following.kind in ("expand", "backtrack")
        if following.kind == "expand":
            assert following.depth == 0  # next root, not a descent


def test_trace_incumbent_volumes_nondecreasing():
    rng = random.Random(33)
    units, pallet, params = random_solver_instance(rng, max_units=5)
    sol, trace = solve_with_trace(units, pallet, params)
    volumes = [e.volume for e in trace if e.kind == "incumbent"]
    assert volumes == sorted(volumes)
    if volumes:
        assert volumes[-1] == sol.placed_volume
    else:
        assert sol.placed_volume == 0


def test_trace_replays_to_the_solution():
    rng = random.Random(17)
    units, pallet, params = random_solver_instance(rng, max_units=5)
    sol, trace = solve_with_trace(units, pallet, params)
    incumbents = [e for e in trace if e.kind == "incumbent"]
    if incumbents:
        last = incumbents[-1].placements
        assert last == tuple(
            (pl.unit_id, pl.position, pl.rotated) for pl in sol.placements
        )


def test_node_budget_stops_the_search_at_its_node():
    # A search stopped after n nodes holds the incumbent the full search
    # held when it began node n + 1, and the prunes of its first n - 1
    # nodes: node n offers its best candidate to the incumbent and stops.
    rng = random.Random(404)
    for _ in range(10):
        units, pallet, params = random_solver_instance(rng, max_units=6)
        full, trace = solve_with_trace(units, pallet, params)
        before = []  # per node, (incumbent volume, prunes) when it began
        volume = prunes = 0
        for ev in trace:
            if ev.kind == "expand":
                before.append((volume, prunes))
            elif ev.kind == "incumbent":
                volume = ev.volume
            elif ev.kind == "prune":
                prunes += 1
        total = full.stats.nodes_expanded
        assert len(before) == total
        before.append((full.placed_volume, full.stats.nodes_pruned_by_bound))
        for n in sorted({1, 2, 3, total // 2, total - 1, total, total + 1} - {0}):
            sol = solve(units, pallet, dataclasses.replace(params, max_nodes=n))
            assert sol.stats.nodes_expanded == min(n, total)
            assert sol.stats.timed_out is (n <= total)
            if n < total:
                assert sol.placed_volume == before[n][0]
                assert sol.stats.nodes_pruned_by_bound == before[n - 1][1]
            else:
                assert sol.placements == full.placements


def test_time_limit_returns_incumbent_quickly():
    # The first dive alone outlasts the 150 ms budget.
    units, pallet = _deep_instance(8)
    params = SolverParams(vertical_support_min=0.7, gap_tolerance=5, time_limit_ms=150,
                          max_branches=4)
    start = time.monotonic()
    sol = solve(units, pallet, params)
    wall = (time.monotonic() - start) * 1000
    assert sol.stats.timed_out
    assert wall < 1000
    assert sol.stats.elapsed_ms <= 1000


def test_a_wall_stopped_solve_replays_under_its_node_count():
    # A solve stopped by the clock is reproduced by a node budget of the
    # nodes it expanded: the incumbent changes only when a node is
    # expanded. Prunes and candidates are not compared, since the work
    # after the last node, before the clock fires, can add to them.
    for seed in (11, 12, 13):
        units, pallet = _tight_instance(seed)
        for ms in (30, 120):
            params = SolverParams(vertical_support_min=1.0, time_limit_ms=ms)
            walled = solve(units, pallet, params)
            assert walled.stats.timed_out and walled.stats.nodes_expanded > 0
            replay = solve(units, pallet, dataclasses.replace(
                params, time_limit_ms=300_000, max_nodes=walled.stats.nodes_expanded))
            assert replay.placements == walled.placements
            assert replay.placed_volume == walled.placed_volume
            assert replay.stats.nodes_expanded == walled.stats.nodes_expanded


def test_deadline_holds_on_many_units_that_mostly_skip():
    # 5,000 units of 400-900 mm on a 1200x800x1500 pallet: a few fit, so
    # nearly every node skips and retries its state with the next unit.
    rng = random.Random(5000)
    text = json.dumps({
        "pallet": {"width": 1200, "depth": 800, "max_height": 1500},
        "units": [{"id": f"u{i}", "w": rng.randint(400, 900), "d": rng.randint(400, 900),
                   "h": rng.randint(400, 900)} for i in range(5000)],
        "params": {"time_limit_ms": 200, "vertical_support_min": 0.7},
    })
    instance = parse_instance(text)
    start = time.monotonic()
    sol = solve(instance.units, instance.pallet, instance.params)
    wall = (time.monotonic() - start) * 1000
    assert sol.stats.timed_out
    assert wall < 1.5 * 200
    assert sol.stats.nodes_expanded > 100 * len(sol.placements) > 0
    sf = build_solution_file(sol, instance.params, text)
    assert validate_solution(sf, instance, text) == []


def test_deadline_holds_at_any_gap():
    # anytime-deep's shape under a gap far above any pallet: a push or pop
    # must not walk every height the gap spans.
    rng = random.Random(18)
    text = json.dumps({
        "pallet": {"width": 1200, "depth": 800, "max_height": 1500},
        "units": [{"id": f"u{i}", "w": rng.randint(50, 200), "d": rng.randint(50, 200),
                   "h": rng.randint(50, 200)} for i in range(150)],
        "params": {"time_limit_ms": 100, "vertical_support_min": 0.7, "gap_tolerance": 10**12},
    })
    instance = parse_instance(text)
    start = time.monotonic()
    sol = solve(instance.units, instance.pallet, instance.params)
    wall = (time.monotonic() - start) * 1000
    assert wall < 150
    sf = build_solution_file(sol, instance.params, text)
    assert validate_solution(sf, instance, text) == []


def _cube_column():
    """150 10 mm cubes, all of which fit the pallet, searched one candidate
    per level; with the instance text."""
    units = [_unit(i, 10, 10, 10) for i in range(150)]
    pallet = Pallet(100, 100, 200)
    params = SolverParams(vertical_support_min=1.0, max_branches=1, time_limit_ms=60_000)
    text = json.dumps({
        "pallet": {"width": 100, "depth": 100, "max_height": 200},
        "units": [{"id": u.id, "w": 10, "d": 10, "h": 10} for u in units],
    })
    return units, pallet, params, text


def test_deep_search_needs_no_call_stack():
    # One placed unit per search level; the limit leaves room for far fewer
    # levels than units placed, so a recursive search would fail here.
    units, pallet, params, text = _cube_column()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        sol = solve(units, pallet, params)
    finally:
        sys.setrecursionlimit(limit)
    assert len(sol.placements) > 100
    sf = build_solution_file(sol, params, text)
    assert validate_solution(sf, parse_instance(text), text) == []


def test_replay_checks_each_pair_of_boxes_once(monkeypatch):
    units, pallet, params, text = _cube_column()
    sf = build_solution_file(solve(units, pallet, params), params, text)
    instance = parse_instance(text)
    calls = 0
    pair_check = model.boxes_overlap

    def counted(a, b):
        nonlocal calls
        calls += 1
        return pair_check(a, b)

    monkeypatch.setattr(model, "boxes_overlap", counted)
    assert validate_solution(sf, instance, text) == []
    k = len(sf.placements)
    assert k == 150
    assert 0 < calls <= k * (k - 1) // 2


def test_invalid_instances_rejected(pallet_4x3x10):
    with pytest.raises(ValueError):
        solve([], pallet_4x3x10, P0)
    dup = [
        TransportUnit("a", Dims(1, 1, 1), 0),
        TransportUnit("a", Dims(1, 1, 1), 1),
    ]
    with pytest.raises(ValueError):
        solve(dup, pallet_4x3x10, P0)
    bad_order = [
        TransportUnit("a", Dims(1, 1, 1), 0),
        TransportUnit("b", Dims(1, 1, 1), 2),
    ]
    with pytest.raises(ValueError):
        solve(bad_order, pallet_4x3x10, P0)


@pytest.mark.parametrize("units", [
    [TransportUnit("k" * 5000, Dims(1, 1, 1), 0), TransportUnit("k" * 5000, Dims(1, 1, 1), 1)],
    [TransportUnit("k" * 5000, Dims(1, 1, 1), 1)],
], ids=["duplicate-id", "order-index"])
def test_invalid_instance_message_is_shortened(pallet_4x3x10, units):
    with pytest.raises(ValueError) as err:
        solve(units, pallet_4x3x10, P0)
    assert "kkk" in str(err.value) and len(str(err.value)) < 200


def test_branch_cap_limits_children():
    rng = random.Random(55)
    units, pallet, _ = random_solver_instance(rng, max_units=5)
    wide = SolverParams(vertical_support_min=0.0, max_branches=10**6, time_limit_ms=10**9)
    narrow = dataclasses.replace(wide, max_branches=1)
    a = solve(units, pallet, wide)
    b = solve(units, pallet, narrow)
    assert b.stats.nodes_expanded <= a.stats.nodes_expanded
    assert b.placed_volume <= a.placed_volume


class _CheckedBound(search._Searcher):
    """Checks each prune decision the searcher makes against the reference
    bound of the same node, and counts the stage that decided it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stages = {"rest": 0, "columns": 0, "fill": 0, "kernel": 0}

    def _closed(self, idx, depth):
        closed = super()._closed(idx, depth)
        state = _state_of(self)
        ub = node_upper_bound(state, self.units[idx:], self.params.bound_mode)
        assert closed == (ub <= self.incumbent_volume)
        # The stage from the inputs: the units left cannot beat the
        # incumbent together, or a first-fit fill beats it, into the pallet
        # less the columns of the boxes or into the unused volume; else the
        # kernel (or the LP value) decides, never where every unit fits.
        rest = self.volumes[idx:]
        need = self.incumbent_volume - state.placed_volume()
        columns = sum(pl.oriented_dims.w * pl.oriented_dims.d * pl.z2
                      for pl in state.placements)
        unused = unused_volume(state)
        if sum(rest) <= need:
            stage = "rest"
        elif _first_fit(rest, self.pallet.volume() - columns) > need:
            stage = "columns"
        elif _first_fit(rest, unused) > need:
            stage = "fill"
        else:
            assert sum(rest) > unused
            stage = "kernel"
        self.stages[stage] += 1
        return closed


def _first_fit(volumes, capacity):
    fill = 0
    for v in volumes:
        if fill + v <= capacity:
            fill += v
    return fill


@pytest.mark.parametrize("mode", ["exact_knapsack", "lp_relaxation"])
def test_searcher_bound_equals_the_reference_bound(mode):
    # An instance whose first 1,000 nodes both prune and pass on the fill,
    # and whose rest bound keeps nodes closed. Every decision must be
    # node_upper_bound <= incumbent; the kernel stage is the next test's.
    units, pallet = _tight_instance(27)
    params = SolverParams(vertical_support_min=1.0, bound_mode=mode, max_nodes=1000)
    searcher = _CheckedBound(units, pallet, params, None)
    sol = searcher.run()
    assert sol.stats.nodes_expanded == 1000
    assert sol.stats.nodes_pruned_by_bound > 0
    assert searcher.stages["rest"] > 0 and searcher.stages["columns"] > 0, searcher.stages


@pytest.mark.parametrize("mode", ["exact_knapsack", "lp_relaxation"])
def test_failed_fill_leaves_the_decision_to_the_bound(mode):
    # Volume 6 loaded and 4 free, units of volume 3, 2 and 2 to come: first
    # fit takes the 3 and loads 3, the bound is 4 (2 + 2).
    units = [_unit(i, w, 1, 1) for i, w in enumerate((6, 3, 2, 2))]
    params = dataclasses.replace(P0, bound_mode=mode)
    events = []
    searcher = _CheckedBound(units, Pallet(10, 1, 1), params, events.append)
    searcher._push(units[0], (0.0, 0, 0, 0, False))
    searcher.incumbent_volume = 9  # needs 4 more: the fill fails, the bound does not
    assert not searcher._closed(1, 0)
    searcher.incumbent_volume = 10  # needs 5 more: both fail
    assert searcher._closed(1, 0)
    searcher.incumbent_volume = 8  # needs 3 more: the fill decides
    assert not searcher._closed(1, 0)
    assert searcher.stages == {"rest": 0, "columns": 1, "fill": 0, "kernel": 2}
    assert [e.upper_bound for e in events] == [10]
    assert searcher.nodes_pruned == 1


@pytest.mark.parametrize("mode", ["exact_knapsack", "lp_relaxation"])
def test_node_where_every_unit_fits_opens_without_a_fill(mode):
    # Volume 6 loaded, so 4 of the pallet's 10 lie above the columns, and 3
    # more is needed. Units of volume 2 and 2 to come: they sum to exactly
    # the 4, first fit would take both, and the sum alone opens the node.
    fills = []
    for rest in ((2, 2), (3, 2)):
        units = [_unit(i, w, 1, 1) for i, w in enumerate((6, *rest))]
        searcher = _CheckedBound(units, Pallet(10, 1, 1),
                                 dataclasses.replace(P0, bound_mode=mode), None)
        fill_beats = searcher._fill_beats
        searcher._fill_beats = lambda *args: fills.append(args) or fill_beats(*args)
        searcher._push(units[0], (0.0, 0, 0, 0, False))
        searcher.incumbent_volume = 9
        closed = searcher._closed(1, 0)
        if rest == (2, 2):
            assert not closed and not fills
            assert searcher.stages == {"rest": 0, "columns": 1, "fill": 0, "kernel": 0}
        else:
            # One more unit of volume, 5 past the 4: first fit takes the 3
            # alone into the 4 above the columns and into the unused volume,
            # so both fills run and fail, and the kernel (3) or the LP value
            # (4) decides against the 3 needed.
            assert closed == (mode == "exact_knapsack")
            assert [args[1] for args in fills] == [4, 4]
            assert searcher.stages == {"rest": 0, "columns": 0, "fill": 0, "kernel": 1}


def _bound_pressed_instance(rng):
    """Up to the oracle's limit of units, each up to the pallet's size, on a
    2-5 x 2-5 x 2-4 pallet at full support: the units seldom all fit, so
    first-fit fills often fail and the knapsack bound decides."""
    pallet = Pallet(rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 4))
    units = [
        _unit(i, rng.randint(1, pallet.width), rng.randint(1, pallet.depth),
              rng.randint(1, pallet.max_height))
        for i in range(rng.randint(3, MAX_UNITS))
    ]
    return units, pallet, dataclasses.replace(P0, vertical_support_min=1.0)


@pytest.mark.parametrize("mode", ["exact_knapsack", "lp_relaxation"])
def test_pruning_is_safe_where_the_knapsack_decides(mode):
    # Every decision on real search states, the kernel's among them, must
    # be node_upper_bound <= incumbent, and the result the oracle's.
    rng = random.Random(909)
    kernel = 0
    for _ in range(100):
        units, pallet, params = _bound_pressed_instance(rng)
        params = dataclasses.replace(params, bound_mode=mode)
        searcher = _CheckedBound(units, pallet, params, None)
        sol = searcher.run()
        assert sol.placements == exhaustive_solve(units, pallet, params).placements
        kernel += searcher.stages["kernel"]
    assert kernel > 100


def _overhang_instance(rng):
    """A _bound_pressed_instance below full support: a unit may stand on
    part of another and overhang it, and the space under the overhang is
    what the bound leaves out."""
    units, pallet, params = _bound_pressed_instance(rng)
    return units, pallet, dataclasses.replace(
        params, vertical_support_min=rng.choice([0.0, 0.25, 0.5, 0.7]))


def _low_support_instance(rng, max_branches):
    """Up to the oracle's limit of units on a 2-6 x 1-5 x 2-5 pallet, each
    up to the pallet's size, at a support of 0, 0.1 or 0.3, coplanarity
    tolerances of 0-2 and a branch cap of 1, 2 or ``max_branches``: the
    best child often stands over space that a sibling leaves open."""
    pallet = Pallet(rng.randint(2, 6), rng.randint(1, 5), rng.randint(2, 5))
    units = [
        _unit(i, rng.randint(1, pallet.width), rng.randint(1, pallet.depth),
              rng.randint(1, pallet.max_height))
        for i in range(rng.randint(3, MAX_UNITS))
    ]
    return units, pallet, dataclasses.replace(
        P0, vertical_support_min=rng.choice([0.0, 0.1, 0.3]),
        p_x=rng.randint(0, 2), p_y=rng.randint(0, 2), p_z=rng.randint(0, 2),
        max_branches=rng.choice([1, 2, max_branches]))


@pytest.mark.parametrize("max_branches", [4, 10**6])
def test_pruning_is_safe_below_full_support(max_branches):
    # Every decision must be node_upper_bound <= incumbent, and the result
    # the oracle's, with units that overhang in many of the solutions.
    rng = random.Random(707)
    overhanging = 0
    for _ in range(100):
        units, pallet, params = _overhang_instance(rng)
        params = dataclasses.replace(params, max_branches=max_branches)
        sol = _CheckedBound(units, pallet, params, None).run()
        assert sol.placements == exhaustive_solve(units, pallet, params).placements
        state = PackingState.empty(pallet)
        for pl in sol.placements:
            support = check_placement(state, pl.position, pl.oriented_dims, params)
            overhanging += support.vertical_fraction < 1
            state = state.with_placement(pl)
    assert overhanging > 20
    # Lower support, in both bound modes, on a batch of each cap's own. A
    # prune that closed a node and its siblings on the best child's
    # envelope placed other than the oracle on 4 of the 1,000 solves at 4,
    # and less on one of them.
    rng = random.Random(max_branches)
    for _ in range(500):
        units, pallet, params = _low_support_instance(rng, max_branches)
        for mode in ("exact_knapsack", "lp_relaxation"):
            params = dataclasses.replace(params, bound_mode=mode)
            sol = _CheckedBound(units, pallet, params, None).run()
            assert sol.placements == exhaustive_solve(units, pallet, params).placements


@pytest.mark.parametrize("mode", ["exact_knapsack", "lp_relaxation"])
def test_unit_under_an_overhang_is_not_pruned_away(mode):
    # A and B stand at both ends and the bridge spans them. C would fit in
    # the gap underneath, where the bound counts no space; units are loaded
    # from above, so the oracle does not put it there either.
    bridge = ([_unit(0, 1, 1, 1), _unit(1, 1, 1, 1), _unit(2, 4, 1, 1), _unit(3, 2, 1, 1)],
              Pallet(4, 1, 2), dataclasses.replace(P0, vertical_support_min=0.5))
    # The 3x1x1's best child lays it on the post, where the 3x1x2 no longer
    # fits; its sibling on the floor beside the post leaves room for it. A
    # bound on the best child's envelope alone closed the node, siblings
    # and all, and loaded 9 of the oracle's 11.
    post = ([_unit(0, 1, 1, 2), _unit(1, 3, 1, 1), _unit(2, 3, 1, 2)],
            Pallet(4, 1, 3), SolverParams(vertical_support_min=0.0))
    for units, pallet, params in (bridge, post):
        params = dataclasses.replace(params, bound_mode=mode)
        assert solve(units, pallet, params).placements == (
            exhaustive_solve(units, pallet, params).placements
        )
