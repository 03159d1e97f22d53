import random
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from palletpack import bounds
from palletpack.bounds import subset_sum_max
from palletpack.model import Dims, PackingState, TransportUnit

from conftest import make_state
from reference.bounds import node_upper_bound
from reference.oracle import dp_knapsack


def exhaustive_best_fill(volumes, capacity):
    best = 0
    for r in range(len(volumes) + 1):
        for combo in combinations(volumes, r):
            s = sum(combo)
            if s <= capacity and s > best:
                best = s
    return best


def test_knapsack_examples():
    assert subset_sum_max((6, 5, 4), 10) == 10
    assert subset_sum_max((7, 7), 10) == 7
    assert subset_sum_max((), 10) == 0


def test_lower_bound_examples(pallet_4x3x10):
    # The lower bound at a node is the volume already loaded; with nothing
    # left to place, the node's upper bound closes on it.
    empty = PackingState.empty(pallet_4x3x10)
    one = make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1)])
    two = make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1), (2, 0, 0, 1, 1, 1)])
    for state, loaded in [(empty, 0), (one, 4), (two, 5)]:
        assert state.placed_volume() == loaded
        assert node_upper_bound(state, ()) == loaded


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
    assert node_upper_bound(one, [], "lp_relaxation") == 4


@given(
    st.lists(st.integers(1, 5000), max_size=15),
    st.integers(0, 20000),
)
def test_exact_mode_matches_dp_oracle(volumes, capacity):
    assert subset_sum_max(volumes, capacity) == dp_knapsack(volumes, capacity)


@given(
    st.lists(st.integers(1, 500), max_size=10),
    st.integers(0, 2000),
)
def test_relaxation_dominates_exact(volumes, capacity):
    exact = subset_sum_max(volumes, capacity)
    assert min(sum(volumes), capacity) >= exact
    assert exact == exhaustive_best_fill(volumes, capacity) if len(volumes) <= 8 else True


def test_exact_mode_random_against_subset_enumeration():
    rng = random.Random(3)
    for _ in range(60):
        volumes = [rng.randint(1, 400) for _ in range(rng.randint(0, 9))]
        capacity = rng.randint(0, 1200)
        assert subset_sum_max(volumes, capacity) == exhaustive_best_fill(volumes, capacity)


def test_exact_mode_has_no_recursion_ceiling():
    # Even volumes and an odd capacity: no subset fills it exactly, so the
    # search dives through all 1,500 items before the work cap trips.
    rng = random.Random(1500)
    volumes = tuple(rng.randint(1, 1000) * 2 for _ in range(1500))
    capacity = sum(volumes) // 2 | 1
    bound = subset_sum_max(volumes, capacity)
    assert dp_knapsack(volumes, capacity) <= bound <= capacity


def reference_subset_sum_max(volumes, capacity):
    """The subset-sum search as first written with an explicit stack, kept
    verbatim but for reading the cap and the item limit from ``bounds``.
    It spends one unit of the work cap per visited node, so a kernel that
    trips the cap one node early or late returns a different value."""
    vols = sorted((v for v in volumes if v <= capacity), reverse=True)
    total = sum(vols)
    if total <= capacity:
        return total

    n = len(vols)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vols[i]

    # Greedy fill seeds the incumbent so the relaxation bound bites early.
    cur = 0
    for v in vols:
        if cur + v <= capacity:
            cur += v
    best = cur
    budget = bounds._WORK_CAP if n > bounds.EXACT_ITEM_LIMIT else -1

    # Depth-first, include before exclude. Each visited node is (i, cur):
    # item i is next, cur is loaded. ``pending`` holds the exclude branches
    # whose include branch is still being explored.
    pending: list[tuple[int, int]] = []
    i = cur = 0
    while True:
        if cur > best:
            best = cur
        if budget > 0:
            budget -= 1
            if budget == 0:
                return min(total, capacity)
        if i == n or best == capacity or min(cur + suffix[i], capacity) <= best:
            if not pending or best == capacity:
                return best
            i, cur = pending.pop()
        elif cur + vols[i] <= capacity:
            pending.append((i + 1, cur))
            cur += vols[i]
            i += 1
        else:
            i += 1


@pytest.mark.parametrize("cap", [1, 2, 3, 7, 50, 1000, None],
                         ids=lambda c: "default" if c is None else f"cap{c}")
@given(st.lists(st.integers(1, 1000), max_size=30), st.integers(0, 16000))
@example([2] * 20, 21)  # no subset fills the capacity: the cap decides
@example([5] * 16, 79)
def test_kernel_matches_the_reference_search(cap, volumes, capacity):
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(bounds, "_WORK_CAP", cap)
        assert subset_sum_max(volumes, capacity) == reference_subset_sum_max(
            volumes, capacity
        )


class SpendingCap(int):
    """A work cap that records each unit the search spends of it."""

    spent = 0

    def __sub__(self, other):
        SpendingCap.spent += 1
        return SpendingCap(int(self) - other)


@st.composite
def capped_inputs(draw):
    """More than EXACT_ITEM_LIMIT volumes, each within a capacity that
    cannot hold them all: the inputs on which the work cap applies. The
    volumes share a factor that the capacity lacks, so no subset fills it
    and a fallback to the relaxation value shows in the result."""
    factor = draw(st.integers(2, 9))
    units = draw(st.lists(st.integers(1, 100), min_size=16, max_size=30))
    capacity = factor * draw(st.integers(max(units), sum(units) - 1))
    return [factor * u for u in units], capacity + draw(st.integers(1, factor - 1))


@given(capped_inputs())
@example(([2] * 20, 21))
@example(([5] * 16, 79))
def test_kernel_trips_the_cap_at_the_reference_step(inputs):
    # The reference search visits ``steps`` nodes when uncapped. A cap of
    # ``steps`` trips on the last of them and one more lets it finish, so
    # the kernel must agree at both to spend the cap node for node.
    volumes, capacity = inputs
    limit = 20_000
    with pytest.MonkeyPatch.context() as mp:
        SpendingCap.spent = 0
        mp.setattr(bounds, "_WORK_CAP", SpendingCap(limit))
        reference_subset_sum_max(volumes, capacity)
        steps = SpendingCap.spent
        for cap in (steps - 1, steps, steps + 1):
            if cap > 0:
                mp.setattr(bounds, "_WORK_CAP", cap)
                assert subset_sum_max(volumes, capacity) == (
                    reference_subset_sum_max(volumes, capacity)
                ), cap
