import random
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from palletpack.bounds import (
    BoundContext,
    knapsack_upper_bound,
    lower_bound,
    node_upper_bound,
)
from palletpack.model import Dims, PackingState, TransportUnit
from palletpack.oracle import dp_knapsack

from conftest import make_state


def exhaustive_best_fill(volumes, capacity):
    best = 0
    for r in range(len(volumes) + 1):
        for combo in combinations(volumes, r):
            s = sum(combo)
            if s <= capacity and s > best:
                best = s
    return best


def test_knapsack_examples():
    assert knapsack_upper_bound(BoundContext((6, 5, 4), 10, 0), "exact_knapsack") == 10
    assert knapsack_upper_bound(BoundContext((7, 7), 10, 0), "exact_knapsack") == 7
    assert knapsack_upper_bound(BoundContext((7, 7), 10, 0), "lp_relaxation") == 10
    assert knapsack_upper_bound(BoundContext((), 10, 0), "exact_knapsack") == 0
    assert knapsack_upper_bound(BoundContext((), 10, 0), "lp_relaxation") == 0


def test_knapsack_rejects_unknown_mode():
    with pytest.raises(ValueError):
        knapsack_upper_bound(BoundContext((1,), 10, 0), "simplex")


def test_bound_context_validation():
    with pytest.raises(ValueError):
        BoundContext((0,), 10, 0)
    with pytest.raises(ValueError):
        BoundContext((1,), -1, 0)


def test_lower_bound_examples(pallet_4x3x10):
    assert lower_bound(PackingState.empty(pallet_4x3x10)) == 0
    assert lower_bound(make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1)])) == 4
    two = make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1), (2, 0, 0, 1, 1, 1)])
    assert lower_bound(two) == 5


def _unit(i, w, d, h):
    return TransportUnit(f"u{i}", Dims(w, d, h), i)


def test_node_upper_bound_examples(pallet_4x3x10):
    empty = PackingState.empty(pallet_4x3x10)
    assert node_upper_bound(empty, [_unit(0, 1, 1, 4)], "exact_knapsack") == 4

    one = make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1)])  # V_p = 116
    big = [_unit(1, 10, 10, 2)]  # volume 200 exceeds the capacity
    assert node_upper_bound(one, big, "exact_knapsack") == 4
    assert node_upper_bound(one, big, "lp_relaxation") == 4 + 116

    trio = [_unit(1, 50, 1, 1), _unit(2, 60, 1, 1), _unit(3, 10, 1, 1)]
    assert node_upper_bound(one, trio, "exact_knapsack") == 4 + 110


def test_node_upper_bound_without_remaining(pallet_4x3x10):
    one = make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1)])
    assert node_upper_bound(one, [], "exact_knapsack") == 4


@given(
    st.lists(st.integers(1, 5000), max_size=15),
    st.integers(0, 20000),
)
def test_exact_mode_matches_dp_oracle(volumes, capacity):
    got = knapsack_upper_bound(BoundContext(tuple(volumes), capacity, 0), "exact_knapsack")
    assert got == dp_knapsack(volumes, capacity)


@given(
    st.lists(st.integers(1, 500), max_size=10),
    st.integers(0, 2000),
)
def test_relaxation_dominates_exact(volumes, capacity):
    ctx = BoundContext(tuple(volumes), capacity, 0)
    exact = knapsack_upper_bound(ctx, "exact_knapsack")
    relaxed = knapsack_upper_bound(ctx, "lp_relaxation")
    assert relaxed >= exact
    assert exact == exhaustive_best_fill(volumes, capacity) if len(volumes) <= 8 else True


def test_exact_mode_random_against_subset_enumeration():
    rng = random.Random(3)
    for _ in range(60):
        volumes = [rng.randint(1, 400) for _ in range(rng.randint(0, 9))]
        capacity = rng.randint(0, 1200)
        ctx = BoundContext(tuple(volumes), capacity, 0)
        assert knapsack_upper_bound(ctx, "exact_knapsack") == exhaustive_best_fill(
            volumes, capacity
        )


def test_exact_mode_has_no_recursion_ceiling():
    # Even volumes and an odd capacity: no subset fills it exactly, so the
    # search dives through all 1,500 items before the work cap trips.
    rng = random.Random(1500)
    volumes = tuple(rng.randint(1, 1000) * 2 for _ in range(1500))
    capacity = sum(volumes) // 2 | 1
    bound = knapsack_upper_bound(BoundContext(volumes, capacity, 0), "exact_knapsack")
    assert dp_knapsack(volumes, capacity) <= bound <= capacity
