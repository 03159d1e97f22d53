"""The search's incremental state against the reference functions.

Random push/pop sequences under random parameters; after every step the
state must agree with ``generate``, ``check_placement``, ``evaluate`` and
``unused_volume`` run on the equivalent ``PackingState``. ``_fits`` answers
only for the pairs that ``ranked``'s own tests admit, so it is compared
with ``check_placement`` together with those tests (``placeable``).
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from palletpack.extreme_points import generate
from palletpack.feasibility import (check_overlap_bounds, check_placement, rect_union_area,
                                    support_threshold, vertical_support)
from palletpack.flatstate import FlatState
from palletpack.grid import unused_volume
from palletpack.model import Dims, PackingState, Pallet, Placement, SolverParams, TransportUnit
from palletpack.search import _Deadline

from conftest import set_index
from reference.ranking import evaluate, rank_and_cut, scored_candidates

THRESHOLDS = [0.0, 0.2, 0.25, 1 / 3, 0.5, 0.7, 0.75, 1.0]


def reference_state(state: FlatState) -> PackingState:
    return PackingState(tuple(
        Placement(f"b{i}", (x, y, z), Dims(x2 - x, y2 - y, z2 - z), False)
        for i, (x, y, z, x2, y2, z2) in enumerate(state.boxes)
    ), state.pallet)


def candidates(state: FlatState) -> list:
    """The state's extreme points, ascending by (z, y, x), from ``generate``."""
    return [c.coords for c in generate(reference_state(state))]


def corner_counts(state: FlatState) -> dict:
    """Per point, how many box corners inside the pallet project onto it,
    from the maxima of every box; on an empty pallet, the origin once."""
    p = state.pallet
    counted = {} if state.boxes else {(0, 0, 0): 1}
    for (x, y, z, x2, y2, z2), (mxy, mxz, myx, myz, mzx, mzy) in zip(state.boxes, state._maxima):
        for pt in ((x2, mxy, z), (x2, y, mxz), (myx, y2, z), (x, y2, myz), (mzx, y, z2),
                   (x, mzy, z2)):
            if pt[0] < p.width and pt[1] < p.depth and pt[2] < p.max_height:
                counted[pt] = counted.get(pt, 0) + 1
    return counted


def overlap_sum(below: list, x: int, y: int, x2: int, y2: int) -> int:
    """The summed areas in which the footprint (x, y, x2, y2) overlaps each
    footprint of ``below``."""
    return sum((min(x2, bx2) - max(x, bx)) * (min(y2, by2) - max(y, by))
               for bx, by, bx2, by2 in below
               if x < bx2 and bx < x2 and y < by2 and by < y2)


def admitted(state: FlatState, x, y, z, w, d, h) -> bool:
    """Whether ``ranked``'s own tests pass a w×d×h pair at (x, y, z): a live
    point, the pallet's ceiling, the rays and, above the gap, the support
    sum over the footprints the state keeps below z."""
    entry = state._live.get((x, y, z))
    if entry is None or z + h > state.pallet.max_height or w > entry[0] or d > entry[1]:
        return False
    num, den = state._vertical
    if not num or z <= state._gap:
        return True
    below = state._below.get(z)
    if below is None:
        below = state._scan_below(z)
    return overlap_sum(below, x, y, x + w, y + d) * den >= num * w * d


def placeable(state: FlatState, x, y, z, w, d, h) -> bool:
    """``ranked``'s own tests and then ``_fits``: whether ``ranked`` keeps
    the pair where the cut allows it."""
    return admitted(state, x, y, z, w, d, h) and state._fits(x, y, z, w, d, h)


def assert_matches_reference(state: FlatState, params: SolverParams, units) -> None:
    ref = reference_state(state)
    points = candidates(state)
    assert sorted(corner_counts(state)) == sorted(points)
    assert set(state._live) == {
        pt for pt in points if not any(inside_or_under(pt, b) for b in state.boxes)}
    assert state.volume == ref.placed_volume()
    assert state.unused_volume() == unused_volume(ref)
    for pos in points:
        for w, d, h in units:
            for dims in (Dims(w, d, h), Dims(d, w, h)):
                expected = check_placement(ref, pos, dims, params).feasible
                assert placeable(state, *pos, dims.w, dims.d, dims.h) == expected
                if expected:
                    assert state.score(*pos, dims.w, dims.d, dims.h) == evaluate(
                        ref, pos, dims, params)
    for w, d, h in units:
        assert_ranks_as_reference(state, params, w, d, h)


def assert_ranks_as_reference(state: FlatState, params: SolverParams, w, d, h) -> None:
    # ranked keeps the best pairs that fit, as rank_and_cut over
    # scored_candidates, under a small cut and under one above the pair count.
    expected = scored_candidates(reference_state(state), TransportUnit("u", Dims(w, d, h), 0),
                                 params)
    for cut in (1, 3, 10**6):
        assert state.ranked(w, d, h, cut, lambda: None) == rank_and_cut(expected, cut)


def drive(data, check, params=None) -> None:
    """Draw a pallet, params (unless given), units and a push/pop sequence;
    call ``check(state, params, units)`` on the state before and after each
    step."""
    pallet = Pallet(*(data.draw(st.integers(3, 12)) for _ in range(3)))
    params = params or SolverParams(
        vertical_support_min=data.draw(st.sampled_from(THRESHOLDS)),
        horizontal_support_min_x=data.draw(st.sampled_from(THRESHOLDS)),
        horizontal_support_min_y=data.draw(st.sampled_from(THRESHOLDS)),
        gap_tolerance=data.draw(st.integers(0, 2)),
        p_x=data.draw(st.integers(0, 2)),
        p_y=data.draw(st.integers(0, 2)),
        p_z=data.draw(st.integers(0, 2)),
    )
    side = st.integers(1, 5)
    units = data.draw(st.lists(st.tuples(side, side, side), min_size=1, max_size=3))
    state = FlatState(pallet, params, [Dims(1, 1, 1)])
    check(state, params, units)
    for _ in range(data.draw(st.integers(1, 14))):
        if state.boxes and data.draw(st.integers(0, 3)) == 0:
            state.pop()
        else:
            # A box at a candidate position (as the search places them) or
            # anywhere free; support is not required for a push.
            w, d, h = data.draw(st.tuples(side, side, side))
            if candidates(state) and data.draw(st.booleans()):
                pos = data.draw(st.sampled_from(candidates(state)))
            else:
                pos = tuple(data.draw(st.integers(0, n - 1)) for n in
                            (pallet.width, pallet.depth, pallet.max_height))
            if not check_overlap_bounds(reference_state(state), pos, Dims(w, d, h)):
                continue
            x, y, z = pos
            state.push(x, y, z, w, d, h)
        check(state, params, units)


# drive() builds its states with one unit: "default" indexes none of them.
@pytest.mark.parametrize("indexed", [False, True], ids=["default", "indexed"])
@settings(max_examples=150)
@given(st.data())
def test_push_pop_sequences_match_reference(indexed, data):
    with pytest.MonkeyPatch.context() as mp:
        set_index(mp, indexed)
        drive(data, assert_matches_reference)


def inside_or_under(pos, box) -> bool:
    x, y, z = pos
    return box[0] <= x < box[3] and box[1] <= y < box[4] and z < box[5]


def scratch_live(state: FlatState) -> dict:
    """The live map computed from scratch: every candidate against every
    box whose top lies above it, with the corners counted from the maxima,
    and no support cap taken."""
    p = state.pallet
    counts = corner_counts(state)
    live = {}
    for x, y, z in candidates(state):
        ex, ey = p.width - x, p.depth - y
        for bx, by, _, bx2, by2, bz2 in state.boxes:
            if bz2 <= z:
                continue
            if by <= y < by2:
                if bx <= x < bx2:
                    break  # inside or under this box
                if x < bx and bx - x < ex:
                    ex = bx - x
            elif bx <= x < bx2 and y < by and by - y < ey:
                ey = by - y
        else:
            live[(x, y, z)] = (ex, ey, counts[(x, y, z)], None)
    return live


def expected_reads(state: FlatState, w, d, h) -> int:
    """The clock reads of a ranked() call for a w×d×h unit before its
    _fits(): one per call, then one per live point under the ceiling whose
    rays admit one of the unit's pairs, unless a kept cap rejects both."""
    num, den = state._vertical
    reads = 1
    for pt, (ex, ey, _, cap) in state._live.items():
        if pt[2] + h > state.pallet.max_height or not (
                w <= ex and d <= ey or d <= ex and w <= ey):
            continue
        cap = cap if num and pt[2] > state._gap else None
        reads += cap is None or cap * den >= num * w * d
    return reads


def assert_live_map_sound(state: FlatState, params: SolverParams, units) -> None:
    # Each live point's rays admit every box that fits there, and the loop's
    # own tests with _fits() accept exactly those boxes; each dropped
    # candidate lies inside or under a placed box, so no box fits there.
    # ranked reads the clock as expected_reads counts, then, under no cut,
    # once per pair scored, before its _fits(). A second call on the same
    # state finds a cap at every point above the gap that the first
    # admitted, and answers the same.
    live = state._live
    ref = reference_state(state)
    assert set(live) <= set(candidates(state))
    w, d, h = units[0]
    answers = []
    for _ in range(2):
        ticks = []
        scored = state.pairs_scored
        reads = expected_reads(state, w, d, h)
        answers.append(state.ranked(w, d, h, 10**6, lambda: ticks.append(1)))
        assert len(ticks) == reads + state.pairs_scored - scored
    assert answers[0] == answers[1]
    capped = state._vertical[0]
    for pt, (ex, ey, _, cap) in live.items():
        if (capped and pt[2] > state._gap and pt[2] + h <= state.pallet.max_height
                and (w <= ex and d <= ey or d <= ex and w <= ey)):
            assert cap is not None
    for pos in candidates(state):
        if pos not in live:
            assert any(inside_or_under(pos, box) for box in state.boxes)
            continue
        ex, ey, _, _ = live[pos]
        for w, d, h in units:
            for dw, dd in ((w, d), (d, w)):
                feasible = check_placement(ref, pos, Dims(dw, dd, h), params).feasible
                assert placeable(state, *pos, dw, dd, h) == feasible
                if feasible:
                    assert dw <= ex and dd <= ey


@settings(max_examples=300)
@given(st.data())
def test_free_rays_reject_only_what_fits_rejects(data):
    drive(data, assert_live_map_sound)


def scanned_below(state: FlatState, z: int) -> list:
    """The footprints (x, y, x2, y2) of the boxes whose tops lie within the
    gap below z, by a scan of every box."""
    return [(bx, by, bx2, by2) for bx, by, _, bx2, by2, bz2 in state.boxes
            if 0 <= z - bz2 <= state._gap]


def supported(below: list, x: int, y: int, x2: int, y2: int) -> int:
    """The area of the footprint (x, y, x2, y2) that the union of the
    footprints of ``below`` covers."""
    return rect_union_area([(max(x, bx), max(y, by), min(x2, bx2), min(y2, by2))
                            for bx, by, bx2, by2 in below
                            if x < bx2 and bx < x2 and y < by2 and by < y2])


def overlapping(footprints: list) -> bool:
    """Whether two of ``footprints`` overlap."""
    return any(a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]
               for i, a in enumerate(footprints) for b in footprints[i + 1:])


def test_support_sums_are_the_supported_area():
    # Above the gap, a pair's sum over the footprints the state keeps below
    # its z is the area that the union of the boxes' own footprints there
    # covers, so the support sum admits a pair exactly when the reference
    # vertical test does. Boxes go onto candidates, about half of them no
    # taller than the gap, so boxes stack on boxes and two footprints below
    # a z overlap; there too, ranked must answer as the reference.
    nonzero = [t for t in THRESHOLDS if t > 0]
    overlapped = 0  # heights whose boxes' footprints overlap

    def check(state, params, units):
        # The support cap that ranked keeps at a live point is never less
        # than the sum of a pair that passes its rays.
        nonlocal overlapped
        num, den = state._vertical
        threshold = support_threshold(params.vertical_support_min)
        ref = reference_state(state)
        for w, d, h in units:
            assert_ranks_as_reference(state, params, w, d, h)
        for x, y, z in candidates(state):
            if z <= params.gap_tolerance:
                continue
            raw = scanned_below(state, z)
            overlapped += overlapping(raw)
            kept = state._below.get(z)
            if kept is None:
                kept = state._scan_below(z)
            ex, ey, _, cap = state._live.get((x, y, z), (0, 0, 0, None))
            for w, d, h in units:
                for dw, dd in ((w, d), (d, w)):
                    total = overlap_sum(kept, x, y, x + dw, y + dd)
                    assert total == supported(raw, x, y, x + dw, y + dd)
                    assert (total * den >= num * dw * dd) == (
                        vertical_support(ref, (x, y, z), Dims(dw, dd, h), params.gap_tolerance)
                        >= threshold)
                    if cap is not None and dw <= ex and dd <= ey:
                        assert cap >= total

    @settings(max_examples=150)
    @given(st.data())
    def run(data):
        gap = data.draw(st.integers(2, 3))
        params = SolverParams(vertical_support_min=data.draw(st.sampled_from(nonzero)),
                              gap_tolerance=gap)
        state = FlatState(Pallet(*(data.draw(st.integers(3, 12)) for _ in range(3))), params,
                          [Dims(1, 1, 1)])
        side = st.integers(1, 5)
        units = data.draw(st.lists(st.tuples(side, side, side), min_size=1, max_size=3))
        for _ in range(data.draw(st.integers(1, 10))):
            points = candidates(state)
            if not points:  # the pallet is full
                break
            x, y, z = data.draw(st.sampled_from(points))
            w, d, h = data.draw(side), data.draw(side), data.draw(st.integers(1, gap + 2))
            if check_overlap_bounds(reference_state(state), (x, y, z), Dims(w, d, h)):
                state.push(x, y, z, w, d, h)
                check(state, params, units)

    run()
    assert overlapped > 0


def test_support_sum_is_exact_where_footprints_overlap():
    # A box one unit short stacked on a box of the same footprint: at z = 3,
    # with a gap of 1, both tops lie below an 8x1 pair at (0, 0, 3). Their
    # footprints' overlaps with it sum to its area, but their union covers
    # half of it. The state keeps the short box's footprint as its parts
    # outside the other's, none, so the pair's sum is that half: ranked
    # drops the pair before it scores it.
    params = SolverParams(vertical_support_min=1.0, gap_tolerance=1)
    state = FlatState(Pallet(8, 1, 10), params, [Dims(1, 1, 1)])
    state.push(0, 0, 0, 4, 1, 2)
    state.push(0, 0, 2, 4, 1, 1)
    assert overlap_sum(scanned_below(state, 3), 0, 0, 8, 1) == 8
    assert state._scan_below(3) == [(0, 0, 4, 1)]
    assert (0, 0, 3) in state._live and not admitted(state, 0, 0, 3, 8, 1, 1)
    assert not check_placement(reference_state(state), (0, 0, 3), Dims(8, 1, 1),
                               params).feasible
    assert state.ranked(8, 1, 1, 10**6, lambda: None) == []
    assert state.pairs_scored == 0


def test_a_footprint_is_kept_as_its_parts_outside_the_one_below():
    # A 2x2 box standing, within the gap, in the middle of a 4x4 one's top
    # and over its -x edge: of its footprint (0..2, 1..3) the part outside
    # (1..5, 0..4) is (0..1, 1..3). On the pieces kept, a pair's sum is the
    # area the two footprints cover together.
    params = SolverParams(vertical_support_min=0.5, gap_tolerance=2)
    state = FlatState(Pallet(8, 8, 10), params, [Dims(1, 1, 1)])
    state.push(1, 0, 0, 4, 4, 3)
    state.push(0, 1, 3, 2, 2, 1)
    assert sorted(state._scan_below(4)) == [(0, 1, 1, 3), (1, 0, 5, 4)]
    assert overlap_sum(state._below[4], 0, 0, 6, 4) == supported(
        scanned_below(state, 4), 0, 0, 6, 4) == 18


# Up to 12 heights are cached, against the gap + 1 (at most 4) that a push
# or pop drops: the drops walk those heights in some states and the cached
# keys in others.
@pytest.mark.parametrize("indexed", [False, True], ids=["default", "indexed"])
@settings(max_examples=200)
@given(st.data())
def test_below_cache_matches_a_fresh_scan(indexed, data):
    # Each height's footprints, kept across pushes and pops of boxes whose
    # tops lie elsewhere, must be pairwise disjoint pieces of those a scan
    # of the boxes finds, covering what they cover, and each support cap kept
    # in a live entry across pushes and pops must be the area they cover,
    # down to an empty pallet again.
    pallet = Pallet(*(data.draw(st.integers(3, 12)) for _ in range(3)))
    params = SolverParams(vertical_support_min=data.draw(st.sampled_from(THRESHOLDS[1:])),
                          gap_tolerance=data.draw(st.integers(0, 3)))
    side = st.integers(1, 5)

    def check():
        # Each kept support cap is the area of the rectangle of the point's
        # rays that the footprints below its height cover.
        for z, below in state._below.items():
            raw = scanned_below(state, z)
            assert all(any(bx <= x and by <= y and x2 <= bx2 and y2 <= by2
                           for bx, by, bx2, by2 in raw) for x, y, x2, y2 in below)
            assert not overlapping(below)
            assert rect_union_area(below) == rect_union_area(raw)
        for (x, y, z), (ex, ey, _, cap) in state._live.items():
            if cap is not None:
                assert cap == supported(scanned_below(state, z), x, y, x + ex, y + ey)
        # Ask about more heights: a scan at each, and ranked() at the live points.
        for z in data.draw(st.sets(st.integers(0, pallet.max_height - 1))):
            state._scan_below(z)
        state.ranked(*data.draw(st.tuples(side, side, side)), 10**6, lambda: None)

    with pytest.MonkeyPatch.context() as mp:
        set_index(mp, indexed)
        state = FlatState(pallet, params, [Dims(1, 1, 1)])
        check()
        for _ in range(data.draw(st.integers(1, 12))):
            points = candidates(state)
            if state.boxes and (not points or data.draw(st.integers(0, 3)) == 0):
                state.pop()
            else:
                x, y, z = data.draw(st.sampled_from(points))
                w, d, h = data.draw(st.tuples(side, side, side))
                if not check_overlap_bounds(reference_state(state), (x, y, z), Dims(w, d, h)):
                    continue
                state.push(x, y, z, w, d, h)
            check()
        while state.boxes:
            state.pop()
            check()


def test_scored_checks_the_clock_inside_its_loop():
    # 300 unit cubes in a row on the floor: 600 live points, on their tops
    # and in front of them, most of which pass the rays of a 2x2x1 unit.
    # ranked reads the clock once per call, then once per admitted point
    # that no kept cap rejects, before its support cap (if none is kept),
    # sums and scores, then once before each _fits().
    state = FlatState(Pallet(300, 4, 10), SolverParams(), [Dims(1, 1, 1)])
    for x in range(300):
        state.push(x, 0, 0, 1, 1, 1)
    assert len(state._live) == 600 and not state._below
    log = []
    state.score = lambda *pair: log.append("score") or FlatState.score(state, *pair)
    state._fits = lambda *pair: log.append("fits") or FlatState._fits(state, *pair)
    reads = expected_reads(state, 2, 2, 1)
    kept = state.ranked(2, 2, 1, 4, lambda: log.append("tick"))
    assert len(kept) == 4
    first_fits = log.index("fits")
    scoring, checking = log[:first_fits - 1], log[first_fits - 1:]
    # Step 1: no more than one point's two scores between two reads. No cap
    # is kept yet, so every admitted point reads: the 598 that a 2x2 pair's
    # rays admit.
    assert scoring[0] == "tick" and "fits" not in scoring
    scores_between_reads = "".join(e[0] for e in scoring).split("t")  # runs of "s"
    assert max(map(len, scores_between_reads)) <= 2
    assert scoring.count("tick") == reads == 1 + 598
    # Step 2: a read before each _fits(), and no other work.
    assert checking == ["tick", "fits"] * (len(checking) // 2)
    assert len(checking) // 2 == len(kept)  # it stops at the cut
    # Again, on the caps the first call kept: the tops at x = 297 and 298
    # have 3 and 2 unit squares below their rays, under 0.8 of 4, and read
    # no clock; the answer is the same.
    log.clear()
    assert expected_reads(state, 2, 2, 1) == reads - 2
    assert state.ranked(2, 2, 1, 4, lambda: log.append("tick")) == kept
    assert log[:log.index("fits") - 1].count("tick") == reads - 2

    def deadline_after(n):
        ticks = []

        def tick():
            ticks.append(1)
            if len(ticks) > n:
                raise _Deadline

        return tick

    # A clock that runs out after the call's own read stops the loop at the
    # first point it admits, before any score.
    log.clear()
    with pytest.raises(_Deadline):
        state.ranked(2, 2, 1, 4, deadline_after(1))
    assert log == []
    # One that runs out after the first _fits() stops the second step there.
    log.clear()
    with pytest.raises(_Deadline):
        state.ranked(2, 2, 1, 4, deadline_after(expected_reads(state, 2, 2, 1) + 1))
    assert log.count("fits") == 1


def assert_maps_match_scratch(state: FlatState, params: SolverParams, units) -> None:
    # The live map as computed from scratch over the candidates, with each
    # point's corners counted from the maxima.
    assert state._live == scratch_live(state)


@settings(max_examples=300)
@given(st.data())
def test_free_rays_match_a_computation_from_scratch(data):
    # After every push and pop, whatever the depth and however many pops
    # in a row.
    drive(data, assert_maps_match_scratch)


def synced(twin: FlatState, state: FlatState) -> None:
    """Pop ``twin`` back to the boxes it shares with ``state``, then push
    the rest of ``state``'s boxes onto it."""
    while twin.boxes != state.boxes[:len(twin.boxes)]:
        twin.pop()
    for x, y, z, x2, y2, z2 in state.boxes[len(twin.boxes):]:
        twin.push(x, y, z, x2 - x, y2 - y, z2 - z)


@settings(max_examples=300)
@given(st.data())
def test_dropping_points_no_unit_can_take_changes_no_ranking(data):
    # A twin built with the units' shortest short side and lowest height,
    # taken through the same pushes and pops as a state that drops no
    # point: it keeps exactly the state's entries whose rays reach that side
    # and that lie no higher than the pallet height less that height (and,
    # on an empty pallet, the origin whatever the units), with the same rays
    # and corner counts, and ranks every unit as the state does, scoring as
    # many pairs.
    twin = None

    def check(state, params, units):
        nonlocal twin
        short = min(min(w, d) for w, d, _ in units)
        low = min(h for _, _, h in units)
        if twin is None:
            twin = FlatState(state.pallet, params, [Dims(*unit) for unit in units])
        synced(twin, state)
        assert twin._live.keys() == {
            pt for pt, (ex, ey, _, _) in state._live.items()
            if ex >= short and ey >= short and pt[2] <= state.pallet.max_height - low
        } | ({(0, 0, 0)} if not state.boxes else set())
        for pt, entry in twin._live.items():
            assert entry[:3] == state._live[pt][:3]
        for w, d, h in units:
            for cut in (1, 10**6):
                scored = state.pairs_scored, twin.pairs_scored
                assert (twin.ranked(w, d, h, cut, lambda: None)
                        == state.ranked(w, d, h, cut, lambda: None))
                assert twin.pairs_scored - scored[1] == state.pairs_scored - scored[0]

    drive(data, check)


def journaled(state: FlatState):
    """Everything a pop must restore: the live map with its support caps,
    the maxima of every box, the footprints kept below each height, the
    volume and the columns."""
    return (dict(state._live), list(state._maxima), dict(state._below), state.volume,
            state.columns)


def fresh_index(boxes: list) -> tuple:
    """The index of ``boxes`` sorted from scratch: the boxes by top, and the
    far faces z2, x2 and y2 each ascending with their box indices."""
    faces = []
    for axis in (5, 3, 4):
        values = [b[axis] for b in boxes]
        # a stable sort: boxes with equal faces stay in ascending order
        ids = sorted(range(len(boxes)), key=values.__getitem__)
        faces.append(([values[j] for j in ids], ids))
    return ([boxes[j] for j in faces[0][1]], *faces)


@settings(max_examples=150)
@given(st.data())
def test_kept_index_matches_a_fresh_build(data):
    # Sides of 1-5 on small pallets give many equal faces, and drive() draws
    # p up to 2. After each push and pop, the index that push and pop kept
    # from the empty pallet on must be the one a sort from scratch gives;
    # then the reference checks ask _fits() and score().
    def check(state, params, units):
        assert state._index == fresh_index(state.boxes)
        assert_matches_reference(state, params, units)

    with pytest.MonkeyPatch.context() as mp:
        set_index(mp, True)
        drive(data, check)


@settings(max_examples=300)
@given(st.data())
def test_pop_restores_the_journaled_state(data):
    # saved[k]: the state at depth k just before the push to depth k + 1.
    # The unused volume is asked for at some depths only, so pushes run past
    # the envelope volumes computed so far and pops cut below them. The
    # columns never leave more room than the unused volume. A unit drawn at
    # each step is ranked before the state is saved, so the caps it keeps
    # must come back with the pop of every deeper box, and those a deeper
    # state keeps for another unit must go with it. The state holds one
    # saved frame per box, so none is left behind by a pop.
    saved = []

    def check(state, params, units):
        depth = len(state.boxes)
        assert len(state._saved) == depth
        assert len(state._envelopes) <= depth + 1
        unused = unused_volume(reference_state(state))
        assert state.pallet.volume() - state.columns <= unused
        if data.draw(st.booleans()):
            assert state.unused_volume() == unused
        if depth < len(saved):  # back from depth + 1 by a pop
            assert journaled(state) == saved[depth]
        state.ranked(*data.draw(st.sampled_from(units)), 10**6, lambda: None)
        saved[depth:] = [journaled(state)]

    drive(data, check)


def assert_heights_at_one_z_match(state: FlatState, params: SolverParams, units) -> None:
    # One z at a time, every height in a row: the footprints kept for z,
    # with the loop's other tests and _fits(), must answer for each height as
    # check_placement does.
    ref = reference_state(state)
    points = candidates(state)
    for z in sorted({pt[2] for pt in points}):
        for h in (1, 2, 3, 5, 8):
            for x, y, _ in (pt for pt in points if pt[2] == z):
                for w, d, _ in units:
                    expected = check_placement(ref, (x, y, z), Dims(w, d, h), params).feasible
                    assert placeable(state, x, y, z, w, d, h) == expected


# drive() builds its states with one unit: "default" indexes none of them.
@pytest.mark.parametrize("indexed", [False, True], ids=["default", "indexed"])
@settings(max_examples=150)
@given(st.data())
def test_layers_answer_every_height_at_one_z(indexed, data):
    # Horizontal support and a gap on, as no benchmark workload sets them:
    # the horizontal tests take the boxes above z that start below each
    # height's top, and the support tests look across the gap.
    nonzero = [t for t in THRESHOLDS if t > 0]
    params = SolverParams(
        vertical_support_min=data.draw(st.sampled_from(THRESHOLDS)),
        horizontal_support_min_x=data.draw(st.sampled_from(nonzero)),
        horizontal_support_min_y=data.draw(st.sampled_from(nonzero)),
        gap_tolerance=data.draw(st.integers(1, 3)),
    )
    with pytest.MonkeyPatch.context() as mp:
        set_index(mp, indexed)
        drive(data, assert_heights_at_one_z_match, params)


def test_free_rays_stop_at_the_first_box_and_skip_covered_points():
    state = FlatState(Pallet(10, 10, 10), SolverParams(vertical_support_min=0.0), [Dims(1, 1, 1)])
    state.push(0, 0, 0, 4, 10, 2)  # a slab along y
    state.push(4, 0, 0, 3, 3, 3)  # beside it, touching at x = 4
    assert (4, 0, 0) in candidates(state)  # the slab's corner ...
    assert (4, 0, 0) not in state._live  # ... is the second box's own corner
    assert state._live[(4, 3, 0)] == (6, 7, 2, None)  # in front of the second box
    assert state._live[(0, 0, 2)] == (4, 10, 2, None)  # on the slab, runs into the box's side


def test_a_point_under_an_overhang_is_dropped_and_blocks_no_ray_below_its_top():
    state = FlatState(Pallet(10, 10, 10), SolverParams(vertical_support_min=0.0), [Dims(1, 1, 1)])
    state.push(0, 0, 0, 2, 2, 2)
    state.push(0, 0, 2, 6, 2, 1)  # a bridge over x = 2..6
    assert (2, 0, 0) in candidates(state)  # the first box's corner ...
    assert (2, 0, 0) not in state._live  # ... now lies under the bridge
    assert not state._fits(2, 0, 0, 1, 1, 1)  # nothing goes under the bridge
    assert state._live[(0, 2, 0)] == (10, 8, 3, None)
    # A ray at the bridge's top runs over it; one below stops at a box
    # whose top lies above the point, however high its bottom.
    assert state._live[(0, 0, 3)] == (10, 10, 2, None)
    state.push(7, 0, 5, 2, 2, 2)  # floating at x = 7..9, from z = 5
    assert state._live[(0, 0, 3)] == (7, 10, 2, None)
    assert state._fits(0, 0, 3, 7, 2, 1) and not state._fits(0, 0, 3, 8, 2, 1)


def test_a_candidate_that_comes_back_is_run_against_the_boxes_pushed_meanwhile():
    # (3, 0, 0), a corner of the first box, stops being a candidate when the
    # second box goes down across its +y ray, and comes back as a corner of
    # the third box. Its ray must stop at the second box.
    state = FlatState(Pallet(6, 11, 11), SolverParams(vertical_support_min=0.0), [Dims(1, 1, 1)])
    present = []
    for box in [(1, 0, 3, 2, 5, 5), (1, 5, 0, 5, 3, 2), (1, 0, 0, 2, 4, 2)]:
        state.push(*box)
        present.append((3, 0, 0) in candidates(state))
        assert state._live == scratch_live(state)
    assert present == [True, False, True]
    assert state._live[(3, 0, 0)] == (3, 5, 2, None)



def test_a_corner_that_lands_on_a_covered_point_leaves_no_entry():
    state = FlatState(Pallet(10, 10, 10), SolverParams(vertical_support_min=0.0), [Dims(1, 1, 1)])
    state.push(0, 0, 0, 2, 2, 2)
    before = state._live[(2, 0, 0)]
    assert before == (8, 10, 2, None)  # two of the box's corners project onto it
    state.push(2, 0, 0, 2, 2, 3)  # a box on that point
    assert (2, 0, 0) not in state._live
    counted = corner_counts(state)[(2, 0, 0)]
    state.push(0, 0, 2, 2, 2, 1)  # a box whose +x corner slides down onto it
    assert corner_counts(state)[(2, 0, 0)] == counted + 1
    assert (2, 0, 0) not in state._live
    state.pop()
    state.pop()  # the covering box is gone: the point and its count are back
    assert state._live[(2, 0, 0)] == before

BASE = {"vertical_support_min": 0.0, "horizontal_support_min_x": 0.0,
        "horizontal_support_min_y": 0.0}


@pytest.mark.parametrize("field,gap,boxes,pos,dims", [
    # 7 of 10 columns of the bottom face rest on a top 1 mm below it
    ("vertical_support_min", 1, [(0, 0, 0, 7, 1, 1)], (0, 0, 2), (10, 1, 1)),
    # 7 of 10 of the -x face backed by a +x face 2 mm away
    ("horizontal_support_min_x", 2, [(0, 0, 0, 1, 7, 1)], (3, 0, 0), (1, 10, 1)),
    # 7 of 10 of the -y face backed by a +y face 1 mm away
    ("horizontal_support_min_y", 1, [(0, 0, 0, 7, 1, 1)], (0, 2, 0), (10, 1, 1)),
])
@pytest.mark.parametrize("threshold,feasible", [(0.7, True), (0.71, False), (0.69, True)])
def test_support_exactly_on_threshold(field, gap, boxes, pos, dims, threshold, feasible):
    params = SolverParams(**{**BASE, field: threshold}, gap_tolerance=gap)
    state = FlatState(Pallet(12, 12, 12), params, [Dims(1, 1, 1)])
    for box in boxes:
        state.push(*box)
    ref = reference_state(state)
    assert check_placement(ref, pos, Dims(*dims), params).feasible is feasible
    # ranked's support sum decides vertical support (num 0: no test), and
    # _fits() the horizontal rules.
    (x, y, z), (w, d, _), (num, den) = pos, dims, state._vertical
    vertical = overlap_sum(state._scan_below(z), x, y, x + w, y + d) * den >= num * w * d
    assert (vertical and state._fits(*pos, *dims)) is feasible


def test_pop_restores_candidates_after_deep_pushes():
    state = FlatState(Pallet(10, 10, 10), SolverParams(vertical_support_min=0.0), [Dims(1, 1, 1)])
    seen = []
    for x in range(0, 10, 2):
        seen.append((corner_counts(state), dict(state._live)))
        state.push(x, 0, 0, 2, 3, 2)
    for expected in reversed(seen):
        state.pop()
        assert (corner_counts(state), dict(state._live)) == expected
    assert state.unused_volume() == 1000 and state.volume == 0


def test_score_sums_in_reference_set_order():
    # Thirty boxes: an index set with few members spread over 0..29 iterates
    # out of index order, and some float sums then differ in their last bit
    # from the same terms added in index order.
    rng = random.Random(0)
    params = SolverParams(vertical_support_min=0.0)
    state = FlatState(Pallet(40, 40, 8), params, [Dims(1, 1, 1)])
    while len(state.boxes) < 30:
        x, y, z = rng.choice(candidates(state))
        w, d, h = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 4)
        if check_overlap_bounds(reference_state(state), (x, y, z), Dims(w, d, h)):
            state.push(x, y, z, w, d, h)
    assert_matches_reference(state, params, [(3, 5, 2), (7, 2, 1), (2, 2, 3)])


def test_indexed_score_fills_colliding_sets_in_index_order(monkeypatch):
    # At (0, 12, 0), a 4x1x1 box's +x face lies within 2 of the +x faces of
    # boxes 0 and 8 (at 3) and 1 and 2 (at 6). Boxes 0 and 8 share a slot
    # of an 8-slot set table, so a set filled in face order (0, 8, 1, 2)
    # iterates in another order than one filled in index order, and the
    # score's last bit differs.
    set_index(monkeypatch, True)
    params = SolverParams(vertical_support_min=0.0, p_x=2, p_y=2, p_z=2)
    state = FlatState(Pallet(24, 24, 8), params, [Dims(1, 1, 1)])
    for x, y, z, x2, y2, z2 in [
        (0, 0, 0, 3, 6, 3), (0, 6, 0, 6, 12, 2), (0, 6, 2, 6, 9, 4), (6, 6, 0, 10, 13, 1),
        (0, 0, 4, 1, 7, 7), (10, 0, 0, 15, 3, 1), (6, 3, 2, 9, 6, 5), (9, 3, 1, 11, 6, 5),
        (1, 0, 4, 3, 3, 8),
    ]:
        state.push(x, y, z, x2 - x, y2 - y, z2 - z)
    assert list(set([0, 1, 2, 8])) != list(set([0, 8, 1, 2]))
    pos = (0, 12, 0)
    assert state._fits(*pos, 4, 1, 1)
    assert state.score(*pos, 4, 1, 1) == evaluate(reference_state(state), pos, Dims(4, 1, 1),
                                                  params)
