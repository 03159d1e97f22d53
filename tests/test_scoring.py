import math

import hypothesis.strategies as st
from hypothesis import given

from palletpack.model import Dims, PackingState, Pallet, SolverParams

from conftest import loose_states, make_state
from reference.ranking import coplanar_sets, evaluate, rank_and_cut

P0 = SolverParams(vertical_support_min=0.0)


def test_coplanar_sets_empty_state(pallet_4x3x10):
    empty = PackingState.empty(pallet_4x3x10)
    assert coplanar_sets(empty, (0, 0, 0), Dims(2, 2, 1), P0) == (set(), set(), set())


def test_coplanar_sets_side_by_side(pallet_4x3x10):
    base = make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1)])
    s_z, s_x, s_y = coplanar_sets(base, (2, 0, 0), Dims(2, 2, 1), P0)
    assert s_z == {0}  # tops both at 1
    assert s_x == set()  # +x faces at 4 vs 2
    assert s_y == {0}  # far faces both at 2


def test_large_tolerance_swallows_all_planes(pallet_4x3x10):
    base = make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1), (0, 0, 1, 2, 2, 3)])
    s_z, _, _ = coplanar_sets(
        base, (2, 0, 0), Dims(1, 1, 1), SolverParams(p_z=100)
    )
    assert s_z == {0, 1}


def test_score_worked_example(pallet_4x3x10):
    # coplanar top contributes 2*2/2, coplanar far face 2*1/2
    base = make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1)])
    score = evaluate(base, (2, 0, 0), Dims(2, 2, 1), P0)
    assert math.isclose(score, 3.0, rel_tol=1e-9)


def test_score_empty_state(pallet_4x3x10):
    empty = PackingState.empty(pallet_4x3x10)
    assert evaluate(empty, (0, 0, 0), Dims(2, 2, 1), P0) == 0.0


def test_coplanar_position_beats_offset_twin():
    pal = Pallet(10, 10, 10)
    base = make_state(pal, [(0, 0, 0, 2, 2, 2)])
    aligned = evaluate(base, (2, 0, 0), Dims(2, 2, 2), P0)  # top coplanar
    offset = evaluate(base, (2, 0, 1), Dims(2, 2, 2), P0)  # top 1 mm higher
    assert aligned > offset


def test_distance_discounts_score():
    pal = Pallet(20, 10, 10)
    base = make_state(pal, [(0, 0, 0, 2, 2, 2)])
    near = evaluate(base, (2, 0, 0), Dims(2, 2, 2), P0)
    far = evaluate(base, (10, 0, 0), Dims(2, 2, 2), P0)
    assert near > far > 0


def _cand(pos, rotated=False, score=0.0):
    x, y, z = pos
    return (-score, z, y, x, rotated)


def test_rank_and_cut_truncates():
    cands = [_cand((i, 0, 0), score=float(i)) for i in range(5)]
    top = rank_and_cut(cands, 3)
    assert [-c[0] for c in top] == [4.0, 3.0, 2.0]


def test_rank_and_cut_tie_break_order():
    cands = [
        _cand((1, 0, 0)),
        _cand((0, 0, 1)),
        _cand((0, 1, 0)),
        _cand((0, 0, 0), rotated=True),
        _cand((0, 0, 0), rotated=False),
    ]
    ordered = rank_and_cut(cands, 10)
    assert [((c[3], c[2], c[1]), c[4]) for c in ordered] == [
        ((0, 0, 0), False),
        ((0, 0, 0), True),
        ((1, 0, 0), False),
        ((0, 1, 0), False),
        ((0, 0, 1), False),
    ]


def test_rank_and_cut_keeps_all_when_short():
    cands = [_cand((0, 0, 0)), _cand((1, 0, 0))]
    assert len(rank_and_cut(cands, 10)) == 2


def test_rank_and_cut_is_input_order_independent():
    cands = [_cand((i, j, 0), score=float((i * 3 + j) % 4)) for i in range(3) for j in range(3)]
    a = rank_and_cut(cands, 5)
    b = rank_and_cut(list(reversed(cands)), 5)
    assert a == b


@given(loose_states(max_units=4, max_extent=16), st.sampled_from([2, 4, 8]))
def test_scale_invariance_of_ranking(state, factor):
    # power-of-two scaling is exact in binary floating point, so for
    # feasible (non-overlapping) candidates the score scales by exactly
    # the factor and the rank order is unchanged
    from palletpack.extreme_points import generate
    from palletpack.feasibility import check_overlap_bounds

    pal = state.pallet
    scaled_state = PackingState(
        tuple(
            type(pl)(
                pl.unit_id,
                (pl.x * factor, pl.y * factor, pl.z * factor),
                Dims(pl.oriented_dims.w * factor, pl.oriented_dims.d * factor,
                     pl.oriented_dims.h * factor),
                pl.rotated,
            )
            for pl in state.placements
        ),
        Pallet(pal.width * factor, pal.depth * factor, pal.max_height * factor),
    )
    dims = Dims(1, 1, 1)
    scores = []
    for cand in generate(state):
        if not check_overlap_bounds(state, cand.coords, dims):
            continue
        s1 = evaluate(state, cand.coords, dims, P0)
        x, y, z = cand.coords
        s2 = evaluate(
            scaled_state,
            (x * factor, y * factor, z * factor),
            Dims(factor, factor, factor),
            P0,
        )
        assert math.isclose(s2, s1 * factor, rel_tol=1e-12, abs_tol=0.0) or s1 == s2 == 0.0
        scores.append((s1, s2))
    ranked1 = sorted(range(len(scores)), key=lambda i: -scores[i][0])
    ranked2 = sorted(range(len(scores)), key=lambda i: -scores[i][1])
    assert ranked1 == ranked2


def test_top_plane_distance_is_symmetric():
    # with only the top-plane term firing, score = area / center distance,
    # so swapping candidate and placed unit preserves the distance
    pal = Pallet(20, 20, 20)
    box_a = (0, 0, 0, 2, 2, 2)
    box_b = (5, 3, 0, 4, 2, 2)
    params = SolverParams(vertical_support_min=0.0, p_x=0, p_y=0, p_z=0)
    s_ab = evaluate(make_state(pal, [box_a]), box_b[:3], Dims(*box_b[3:]), params)
    s_ba = evaluate(make_state(pal, [box_b]), box_a[:3], Dims(*box_a[3:]), params)
    # tops coplanar, +x/+y faces not: only the z terms fire
    area_a, area_b = 2 * 2, 4 * 2
    assert s_ab > 0 and s_ba > 0
    assert math.isclose(s_ab * area_b, s_ba * area_a, rel_tol=1e-12)


def test_adding_a_coplanar_unit_never_decreases_score():
    pal = Pallet(12, 12, 12)
    base = make_state(pal, [(0, 0, 0, 2, 2, 2)])
    more = make_state(pal, [(0, 0, 0, 2, 2, 2), (0, 4, 0, 2, 2, 2)])
    pos, dims = (2, 0, 0), Dims(2, 2, 2)
    assert evaluate(more, pos, dims, P0) >= evaluate(base, pos, dims, P0)
