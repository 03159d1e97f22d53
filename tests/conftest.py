import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from palletpack import flatstate
from palletpack.model import Dims, PackingState, Pallet, Placement, SolverParams, TransportUnit

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


def make_state(pallet: Pallet, boxes) -> PackingState:
    """Boxes as (x, y, z, w, d, h) tuples, ids assigned in order."""
    placements = tuple(
        Placement(f"b{i}", (x, y, z), Dims(w, d, h), False)
        for i, (x, y, z, w, d, h) in enumerate(boxes)
    )
    return PackingState(placements, pallet)


def greedy_state(pallet: Pallet, raw_boxes) -> PackingState:
    """Keep each candidate box that fits the pallet and overlaps nothing
    kept so far; used to turn arbitrary tuples into a valid state."""
    kept = []

    def overlaps(a, b):
        return all(a[i] < b[i + 3] + b[i] and b[i] < a[i] + a[i + 3] for i in range(3))

    for (x, y, z, w, d, h) in raw_boxes:
        box = (x, y, z, w, d, h)
        if x + w > pallet.width or y + d > pallet.depth or z + h > pallet.max_height:
            continue
        if any(overlaps(box, k) for k in kept):
            continue
        kept.append(box)
    return make_state(pallet, kept)


def set_index(mp: pytest.MonkeyPatch, indexed: bool) -> None:
    """Every ``FlatState`` built from now on indexes its boxes from its first
    push (``indexed``) or never, whatever its number of units."""
    mp.setattr(flatstate, "_INDEX_UNITS", 0 if indexed else 10**9)


@st.composite
def loose_states(draw, max_units=6, max_extent=20):
    """A valid packing state: non-overlapping, in bounds. Supports are not
    enforced; fine for grid and candidate-generation tests."""
    width = draw(st.integers(3, max_extent))
    depth = draw(st.integers(3, max_extent))
    zp = draw(st.integers(3, max_extent))
    pallet = Pallet(width, depth, zp)
    n = draw(st.integers(0, max_units))
    raw = []
    for _ in range(n):
        w = draw(st.integers(1, width))
        d = draw(st.integers(1, depth))
        h = draw(st.integers(1, zp))
        x = draw(st.integers(0, max(0, width - w)))
        y = draw(st.integers(0, max(0, depth - d)))
        z = draw(st.integers(0, max(0, zp - h)))
        raw.append((x, y, z, w, d, h))
    return greedy_state(pallet, raw)


def random_loose_state(rng: random.Random, max_units=10, max_extent=50) -> PackingState:
    width = rng.randint(3, max_extent)
    depth = rng.randint(3, max_extent)
    zp = rng.randint(3, max_extent)
    pallet = Pallet(width, depth, zp)
    raw = []
    for _ in range(rng.randint(0, max_units)):
        w = rng.randint(1, width)
        d = rng.randint(1, depth)
        h = rng.randint(1, zp)
        raw.append((
            rng.randint(0, width - w), rng.randint(0, depth - d), rng.randint(0, zp - h),
            w, d, h,
        ))
    return greedy_state(pallet, raw)


def random_units(rng: random.Random, n, max_w, max_d, max_h):
    return [
        TransportUnit(
            f"u{i}",
            Dims(rng.randint(1, max_w), rng.randint(1, max_d), rng.randint(1, max_h)),
            i,
        )
        for i in range(n)
    ]


def random_solver_instance(rng: random.Random, max_units=6):
    """Small random instance with varied stability settings, suitable for
    oracle comparison."""
    width = rng.randint(4, 10)
    depth = rng.randint(4, 10)
    zp = rng.randint(3, 9)
    pallet = Pallet(width, depth, zp)
    n = rng.randint(2, max_units)
    units = random_units(
        rng, n, max(2, width // 2 + 1), max(2, depth // 2 + 1), max(2, zp // 2 + 1)
    )
    params = SolverParams(
        vertical_support_min=rng.choice([0.0, 0.5, 0.7, 0.8, 1.0]),
        horizontal_support_min_x=rng.choice([0.0, 0.0, 0.3]),
        horizontal_support_min_y=rng.choice([0.0, 0.0, 0.3]),
        gap_tolerance=rng.choice([0, 0, 1]),
        p_x=rng.choice([0, 1]),
        p_y=rng.choice([0, 1]),
        p_z=rng.choice([0, 1, 2]),
        max_branches=10**6,
        time_limit_ms=10**9,
        bound_mode="exact_knapsack",
    )
    return units, pallet, params


@pytest.fixture
def pallet_4x3x10():
    return Pallet(4, 3, 10)
