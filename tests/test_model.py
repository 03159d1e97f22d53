import hypothesis.strategies as st
import pytest
from hypothesis import given

from palletpack.model import (
    Dims,
    PackingState,
    Pallet,
    Placement,
    SolverParams,
    TransportUnit,
    boxes_overlap,
    oriented,
    volume,
)

dims_st = st.builds(
    Dims, st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 1000)
)


def test_volume_examples():
    assert volume(Dims(1, 1, 1)) == 1
    assert volume(Dims(2, 3, 4)) == 24
    assert volume(Dims(1000, 800, 600)) == 480_000_000


def test_oriented_examples():
    u = TransportUnit("u", Dims(2, 3, 4), 0)
    assert oriented(u, False) == Dims(2, 3, 4)
    assert oriented(u, True) == Dims(3, 2, 4)
    sq = TransportUnit("s", Dims(5, 5, 1), 0)
    assert oriented(sq, True) == Dims(5, 5, 1)


@given(dims_st)
def test_rotation_is_an_involution(d):
    once = Dims(d.d, d.w, d.h)
    twice = Dims(once.d, once.w, once.h)
    assert twice == d


@given(dims_st)
def test_volume_is_orientation_invariant(d):
    u = TransportUnit("u", d, 0)
    assert volume(oriented(u, False)) == volume(oriented(u, True))


@pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
def test_dims_must_be_positive(bad):
    with pytest.raises(ValueError):
        Dims(*bad)


def test_placement_rejects_negative_position():
    with pytest.raises(ValueError):
        Placement("u", (-1, 0, 0), Dims(1, 1, 1), False)


def test_state_rejects_overlap():
    pal = Pallet(4, 3, 10)
    a = Placement("a", (0, 0, 0), Dims(2, 2, 1), False)
    b = Placement("b", (1, 0, 0), Dims(2, 2, 1), False)
    assert boxes_overlap(a, b)
    with pytest.raises(ValueError):
        PackingState((a, b), pal)


def test_state_allows_face_contact():
    pal = Pallet(4, 3, 10)
    a = Placement("a", (0, 0, 0), Dims(2, 2, 1), False)
    b = Placement("b", (2, 0, 0), Dims(2, 2, 1), False)
    assert not boxes_overlap(a, b)
    state = PackingState((a, b), pal)
    assert state.placed_volume() == 8


def test_state_rejects_out_of_bounds():
    pal = Pallet(4, 3, 10)
    with pytest.raises(ValueError):
        PackingState((Placement("a", (3, 0, 0), Dims(2, 2, 1), False),), pal)
    with pytest.raises(ValueError):
        PackingState((Placement("a", (0, 0, 10), Dims(1, 1, 1), False),), pal)


def test_with_placement_checks_the_new_box_as_the_constructor_does():
    pal = Pallet(4, 3, 10)
    a = Placement("a", (0, 0, 0), Dims(2, 2, 1), False)
    state = PackingState((a,), pal)
    out_of_bounds = Placement("b", (3, 0, 0), Dims(2, 2, 1), False)
    overlapping = Placement("b", (1, 0, 0), Dims(2, 2, 1), False)
    for bad in (out_of_bounds, overlapping):
        with pytest.raises(ValueError) as built:
            PackingState((a, bad), pal)
        with pytest.raises(ValueError) as added:
            state.with_placement(bad)
        assert str(added.value) == str(built.value)
    touching = Placement("b", (2, 0, 0), Dims(2, 2, 1), False)
    assert state.with_placement(touching) == PackingState((a, touching), pal)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"vertical_support_min": 1.5},
        {"horizontal_support_min_x": -0.1},
        {"gap_tolerance": -1},
        {"max_branches": 0},
        {"time_limit_ms": 0},
        {"bound_mode": "simplex"},
    ],
)
def test_solver_params_validation(kwargs):
    with pytest.raises(ValueError):
        SolverParams(**kwargs)


def test_solver_params_defaults_are_valid():
    p = SolverParams()
    assert p.vertical_support_min == 0.8
    assert p.max_branches == 4
    assert p.time_limit_ms == 300_000
    assert p.bound_mode == "exact_knapsack"
