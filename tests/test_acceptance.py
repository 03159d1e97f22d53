"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import json
import random
import time

from palletpack.bounds import subset_sum_max
from palletpack.extreme_points import generate
from palletpack.files import build_solution_file, parse_instance, solution_to_json, validate_solution
from palletpack.grid import unused_volume
from palletpack.model import Dims, PackingState, Pallet, SolverParams, TransportUnit
from palletpack.oracle import dp_knapsack, exhaustive_solve, voxel_unused_volume
from palletpack.scoring import evaluate
from palletpack.search import solve
from palletpack.svg import render_svg

from conftest import make_state, random_loose_state, random_solver_instance, random_units


def _report(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return ok


def test_criterion_1_volume_formula_equivalence():
    rng = random.Random(101)
    started = time.monotonic()
    mismatches = 0
    for _ in range(200):
        state = random_loose_state(rng, max_units=10, max_extent=50)
        if unused_volume(state) != voxel_unused_volume(state):
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 10.0
    assert _report(1, "volume formula equivalence", ok,
                   f"200 states, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_knapsack_equivalence():
    rng = random.Random(202)
    started = time.monotonic()
    bad_exact = bad_order = 0
    for _ in range(500):
        n = rng.randint(0, 15)
        volumes = tuple(rng.randint(1, 8000) for _ in range(n))
        capacity = rng.randint(0, 100_000)
        exact = subset_sum_max(volumes, capacity)
        relaxed = min(sum(volumes), capacity)
        if exact != dp_knapsack(volumes, capacity):
            bad_exact += 1
        if relaxed < exact:
            bad_order += 1
    elapsed = time.monotonic() - started
    ok = bad_exact == 0 and bad_order == 0 and elapsed < 10.0
    assert _report(2, "knapsack equivalence", ok,
                   f"500 contexts, {bad_exact}+{bad_order} failures, {elapsed:.1f}s")


def test_criterion_3_prune_safety():
    rng = random.Random(303)
    started = time.monotonic()
    mismatches = 0
    for _ in range(100):
        units, pallet, params = random_solver_instance(rng, max_units=6)
        sol = solve(units, pallet, params)
        oracle = exhaustive_solve(units, pallet, params)
        if sol.placed_volume != oracle.placed_volume:
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 300.0
    assert _report(3, "prune safety", ok,
                   f"100 instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_feasibility_soundness():
    rng = random.Random(404)
    violations_total = 0
    for _ in range(200):
        width = rng.randint(4, 14)
        depth = rng.randint(4, 14)
        zp = rng.randint(4, 12)
        pallet = Pallet(width, depth, zp)
        units = random_units(rng, rng.randint(1, 8),
                             max(2, width // 2 + 1), max(2, depth // 2 + 1),
                             max(2, zp // 2 + 1))
        params = SolverParams(
            vertical_support_min=rng.choice([0.0, 0.5, 0.8, 1.0]),
            horizontal_support_min_x=rng.choice([0.0, 0.3]),
            horizontal_support_min_y=rng.choice([0.0, 0.3]),
            gap_tolerance=rng.choice([0, 1]),
            max_branches=rng.choice([1, 2, 4]),
            time_limit_ms=10**9,
        )
        instance_text = json.dumps({
            "pallet": {"width": width, "depth": depth, "max_height": zp},
            "units": [{"id": u.id, "w": u.dims.w, "d": u.dims.d, "h": u.dims.h}
                      for u in units],
        })
        instance = parse_instance(instance_text)
        sol = solve(units, pallet, params)
        sf = build_solution_file(sol, params, instance_text)
        violations_total += len(validate_solution(sf, instance, instance_text))
    ok = violations_total == 0
    assert _report(4, "feasibility soundness", ok,
                   f"200 instances, {violations_total} violations")


def test_criterion_5_candidate_trace_fidelity():
    pal = Pallet(4, 3, 10)
    t1 = [c.coords for c in generate(PackingState.empty(pal))] == [(0, 0, 0)]
    one = make_state(pal, [(0, 0, 0, 2, 2, 1)])
    t2 = {c.coords for c in generate(one)} == {(2, 0, 0), (0, 2, 0), (0, 0, 1)}
    two = make_state(pal, [(0, 0, 0, 2, 2, 1), (2, 0, 0, 1, 1, 1)])
    t3 = ((2, 1, 0), "yx") in {(c.coords, c.kind) for c in generate(two)}

    rng = random.Random(505)
    inside = 0
    for _ in range(100):
        state = random_loose_state(rng, max_units=8, max_extent=25)
        for c in generate(state):
            x, y, z = c.coords
            for pl in state.placements:
                if pl.x < x < pl.x2 and pl.y < y < pl.y2 and pl.z < z < pl.z2:
                    inside += 1
    ok = t1 and t2 and t3 and inside == 0
    assert _report(5, "extreme point trace fidelity", ok,
                   f"traces {t1},{t2},{t3}; {inside} points inside boxes")


def test_criterion_6_determinism():
    rng = random.Random(606)
    units, pallet, params = random_solver_instance(rng, max_units=6)
    text = json.dumps({
        "pallet": {"width": pallet.width, "depth": pallet.depth,
                   "max_height": pallet.max_height},
        "units": [{"id": u.id, "w": u.dims.w, "d": u.dims.d, "h": u.dims.h}
                  for u in units],
    })
    a = solve(units, pallet, params)
    b = solve(units, pallet, params)
    bytes_a = solution_to_json(build_solution_file(a, params, text)).encode()
    bytes_b = solution_to_json(build_solution_file(b, params, text)).encode()
    svg_a = render_svg(a).encode()
    svg_b = render_svg(b).encode()
    ok = bytes_a == bytes_b and svg_a == svg_b
    assert _report(6, "determinism", ok,
                   f"solution files {'match' if bytes_a == bytes_b else 'differ'}, "
                   f"svg {'match' if svg_a == svg_b else 'differ'}")


def test_criterion_7_scoring_hand_check():
    pal = Pallet(4, 3, 10)
    base = make_state(pal, [(0, 0, 0, 2, 2, 1)])
    score = evaluate(base, (2, 0, 0), Dims(2, 2, 1), SolverParams(vertical_support_min=0.0))
    ok = abs(score - 3.0) <= 1e-9 * 3.0
    assert _report(7, "scoring hand check", ok, f"score {score!r}")


def test_criterion_8_anytime_behavior():
    rng = random.Random(808)
    units = [
        TransportUnit(f"u{i}", Dims(rng.randint(50, 400), rng.randint(50, 400),
                                    rng.randint(50, 400)), i)
        for i in range(40)
    ]
    pallet = Pallet(1200, 800, 1500)
    volumes = []
    walls = []
    limits = [100, 1000, 10_000]
    for limit in limits:
        params = SolverParams(vertical_support_min=0.7, time_limit_ms=limit,
                              max_branches=4)
        started = time.monotonic()
        sol = solve(units, pallet, params)
        walls.append((time.monotonic() - started) * 1000)
        volumes.append(sol.placed_volume)
    # The same search under node budgets, which no clock can disturb.
    budgets = [500, 3_000, 30_000]
    budgeted = [
        solve(units, pallet, SolverParams(vertical_support_min=0.7, max_branches=4,
                                          max_nodes=budget)).placed_volume
        for budget in budgets
    ]
    nondecreasing = volumes == sorted(volumes) and budgeted == sorted(budgeted)
    within_budget = all(w <= 1.5 * l for w, l in zip(walls, limits))
    ok = nondecreasing and within_budget
    assert _report(8, "anytime behavior", ok,
                   f"volumes {volumes}, walls {[f'{w:.0f}ms' for w in walls]}, "
                   f"volumes at {budgets} nodes {budgeted}")
