import random

from hypothesis import given

from palletpack.grid import _cell_heights, build_axes, unused_volume
from palletpack.model import PackingState, Pallet
from palletpack.oracle import voxel_unused_volume

from conftest import loose_states, make_state, random_loose_state


def test_axes_empty_pallet():
    state = PackingState.empty(Pallet(4, 3, 10))
    axes = build_axes(state)
    assert axes.dx == (0, 4)
    assert axes.dy == (0, 3)


def test_axes_one_unit():
    state = make_state(Pallet(4, 3, 10), [(0, 0, 0, 2, 2, 1)])
    axes = build_axes(state)
    assert axes.dx == (0, 2, 4)
    assert axes.dy == (0, 2, 3)


def test_axes_two_units():
    state = make_state(Pallet(4, 3, 10), [(0, 0, 0, 2, 2, 1), (2, 0, 0, 1, 1, 1)])
    axes = build_axes(state)
    assert axes.dx == (0, 2, 3, 4)
    assert axes.dy == (0, 1, 2, 3)


@given(loose_states())
def test_axes_contain_all_faces_sorted(state):
    axes = build_axes(state)
    assert list(axes.dx) == sorted(set(axes.dx))
    assert list(axes.dy) == sorted(set(axes.dy))
    assert axes.dx[0] == 0 and axes.dx[-1] == state.pallet.width
    assert axes.dy[0] == 0 and axes.dy[-1] == state.pallet.depth
    for pl in state.placements:
        assert pl.x in axes.dx and pl.x2 in axes.dx
        assert pl.y in axes.dy and pl.y2 in axes.dy


def test_unused_volume_examples():
    pal = Pallet(4, 3, 10)
    assert unused_volume(PackingState.empty(pal)) == 120
    assert unused_volume(make_state(pal, [(0, 0, 0, 2, 2, 1)])) == 116
    stacked = make_state(pal, [(0, 0, 0, 2, 2, 1), (0, 0, 1, 2, 2, 2)])
    assert unused_volume(stacked) == 108


def test_envelope_heights():
    pal = Pallet(4, 3, 10)
    empty = PackingState.empty(pal)
    heights = _cell_heights(empty, build_axes(empty))
    assert all(h == 0 for row in heights for h in row)
    stacked = make_state(pal, [(0, 0, 0, 2, 2, 1), (0, 0, 1, 2, 2, 2)])
    heights = _cell_heights(stacked, build_axes(stacked))
    assert heights[0][0] == 3
    assert all(0 <= h <= pal.max_height for row in heights for h in row)


@given(loose_states())
def test_unused_volume_matches_voxel_count(state):
    assert unused_volume(state) == voxel_unused_volume(state)


@given(loose_states())
def test_unused_volume_never_exceeds_free_volume(state):
    free = state.pallet.volume() - state.placed_volume()
    assert unused_volume(state) <= free


@given(loose_states(max_units=5, max_extent=12))
def test_adding_a_placement_never_increases_unused_volume(state):
    before = unused_volume(state)
    rng = random.Random(42)
    pal = state.pallet
    for _ in range(50):
        w = rng.randint(1, pal.width)
        d = rng.randint(1, pal.depth)
        h = rng.randint(1, pal.max_height)
        x = rng.randint(0, pal.width - w)
        y = rng.randint(0, pal.depth - d)
        z = rng.randint(0, pal.max_height - h)
        try:
            bigger = make_state(
                pal,
                [(p.x, p.y, p.z, p.oriented_dims.w, p.oriented_dims.d, p.oriented_dims.h)
                 for p in state.placements] + [(x, y, z, w, d, h)],
            )
        except ValueError:
            continue
        assert unused_volume(bigger) <= before
        return


def test_random_states_match_voxel_oracle_exactly():
    rng = random.Random(7)
    for _ in range(40):
        state = random_loose_state(rng, max_units=8, max_extent=30)
        assert unused_volume(state) == voxel_unused_volume(state)
