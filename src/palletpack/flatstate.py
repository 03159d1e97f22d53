"""Incremental packing state owned by the search.

The search only ever pushes one box onto its state and pops it again, so
this state keeps what the parent already knew instead of rebuilding it at
every node. Placed boxes are flat ``(x, y, z, x2, y2, z2)`` int tuples.
Each box also keeps the six projection maxima of its extreme points; a
push updates every box's maxima against the new box (the insertion update
of Crainic, Perboli & Tadei, INFORMS J. Computing 20(3), 2008).

Every answer is the same as the plain reference functions give on the
equivalent ``PackingState``: the live map's points as those of
``extreme_points.generate`` that lie inside or under no box and that some
unit can take, ``score`` as ``reference.ranking.evaluate``, float for
float, and ``ranked`` as ``reference.ranking.rank_and_cut`` over
``reference.ranking.scored_candidates``: its own tests and ``_fits``
together answer as ``feasibility.check_placement(...).feasible``. Only
``check_placement`` serves the library too, in the replay checker. The
``reference`` package lives with the tests (``tests/reference``), and
``extreme_points`` and ``grid`` stay in this package only because the
benchmark's tracer imports them by name.

Units are loaded from above: no placed box whose top lies above a pair's z
may overlap its footprint. So a point inside or under a box takes no pair,
and stays so for as long as that box does. The state keeps only the live
points, in one map across push and pop: per extreme point that lies inside
or under no box and that some unit can take, how far a ray runs from it
along +x and along +y before it meets a box whose top lies above the
point, or a pallet side, how many box corners project onto it, and its
support cap. The state is built with the units' dims, and takes their
shortest short side and lowest height: a point with a ray shorter than
that side, or above the pallet height less that height, takes none of
them. A push moves the corners whose maxima it changes and adds the new
box's; a point whose count falls to zero leaves, and a corner that lands
on or leaves a point with no entry is not counted. The push drops the live
points that now lie inside or under the new box or whose rays it shortens
below that side, and shortens the other rays against it; a point it adds
runs against every box whose top lies above it, and is added only if some
unit can take it. Rays only shorten while boxes are added and a point's z
never changes, so a dropped point takes no unit until the pop that unwinds
its drop; a corner that lands on it meanwhile makes it a new point, which
is dropped again. A pair longer than a ray overlaps the box the ray met,
or leaves the pallet, so a pair fits only where ``w <= ex`` and
``d <= ey``.

Every change to the maxima and the live map goes into one undo journal of
``(container, key, old value)`` entries; a pop unwinds it to the mark its
push left. Beyond that, a state computes only what a node asks of it.
Each placement rule is tested once. ``ranked``'s rays and ceiling keep a
pair inside the pallet, and above the gap its support sum is the pair's
supported area; ``_fits`` tests what is left, no box above z over the
footprint and then horizontal support, for the pairs ``ranked`` admits.
The support sums read the footprints below the pair's z, those of the
boxes whose tops lie in [z - gap, z], cut into pairwise disjoint pieces:
found by a scan on the first ask at z, and kept across push and pop. Two
of those footprints overlap only where one box stands on the other within
the gap, so is no taller than the gap; the scan keeps the others whole,
and each footprint of such a short box as its parts outside the pieces
kept before it, at most four per cut. A box whose top lies at t belongs to
the heights t to t + gap only, so its push or pop drops just those
heights, by a walk over them or over the heights kept, whichever is
shorter; a huge gap then costs a push nothing. The boxes above z are
found per ``_fits`` call. The envelope volume is kept per depth in a list
that ``unused_volume`` extends and a pop cuts back, so a push below which
no node asks for a bound computes none. ``columns``, the sum over boxes of
footprint times top, is never less than that volume and costs a push one
product.

``ranked`` is the one candidate loop, and none of its fast paths changes
an answer. It works in three steps. First it puts each (live point,
orientation) pair of one unit to the cheap tests, in this order:
the pallet's ceiling, the rays, and above the gap the support cap
and the support sum, and scores each pair that passes them. Each test
rejects only pairs that ``check_placement`` rejects. The support sum adds
the areas in which the pair's footprint overlaps each piece kept below its
z, for both orientations in one pass: the pieces are disjoint, so the sum
is the supported area, and a pair whose sum is below num/den of its
footprint is exactly one that is not supported. Then it sorts the scored
pairs by the ranking key (``scoring.Ranked``), and last it calls ``_fits``
in that order until it has accepted ``cut`` pairs. The key is a total
order and ``score`` reads only far faces, not ``_fits``, so the pairs it
keeps are the reference's ``rank_and_cut`` over every pair that fits, and
``_fits`` is not asked about the pairs ranked below the last one kept.

The support cap S of a live point (x, y, z) is that same sum taken over
its rays' rectangle [x, x + ex) x [y, y + ey). A pair passes the rays only
if its footprint lies inside that rectangle, so S is never less than the
pair's sum, and S * den < num * w * d rejects both orientations of a w×d
unit, and only pairs that the support sum rejects: the same pairs are
scored. S depends on the unit only through that comparison, so ``ranked``
keeps it in the point's live entry (None until it is taken) for the next
unit asked about there, and writes it through the journal: the pop of the
state's last box unwinds it. S stays exact while the point's rays and the
footprints below z stay the same. A push that shortens a ray writes the
entry anew with no cap, and a push whose box's top lies at t clears the
caps at the heights [t, t + gap], whose footprints gain the box; the
pop restores both. A point with no cap takes S in a pass of its own, and
a pair's sums only when S does not reject. ``ranked`` reads the clock
(``tick``) once per call, once per point that passes the rays and that no
kept cap rejects, just before that point's work that grows with the boxes
(a scan for the footprints below it, its cap if none is kept, the sums,
its scores), and once before each ``_fits``. So no more than one O(n) step
runs between two reads; a kept cap's reject is O(1), and reads none.

The state picks its fast paths once, from the number of units it is built
with: with at least _INDEX_UNITS (16), it indexes its boxes from the first
push, and every push and pop keeps the index; with fewer, it has no index
and scans its boxes. Per far face z2, x2 and y2, the index holds the faces
in ascending order with their box indices alongside, and it holds the
boxes themselves in the order of their tops. A push inserts the new box
after its equal faces and its pop deletes it from there: it has the highest
index, so equal faces stay in ascending index order, as a fresh sort leaves
them. On an indexed state, ``_fits`` takes the boxes above z, a push runs
each point it adds against the boxes whose tops lie above that point, and
a scan for the footprints below z takes the tops in [z - gap, z], each as a
bisect range of the boxes in top order instead of a scan of every box.
``score`` takes its coplanar sets from bisect ranges of the far faces.
Either way, ``score`` returns 0.0 before it builds a set when no window
holds a face (98.6% of the scores on ``exact-small``, which scans). The
answers do not change.
``_fits``, the rays and the support sums give the same answer in any order
of the boxes: overlap and cover are any-tests, rays are minima, and the
pieces kept below a height, though cut in another order, cover the same
area, an exact integer. ``score`` fills each set of two or more in
ascending index order, as the reference ``evaluate`` does, so the sets
iterate and the float terms add in the same order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Optional, Sequence

from .feasibility import rect_union_area, support_threshold
from .model import Dims, Pallet, SolverParams
from .scoring import DISTANCE_CLAMP, Ranked

Box = tuple[int, int, int, int, int, int]  # x, y, z, x2, y2, z2
Point = tuple[int, int, int]
Footprint = tuple[int, int, int, int]  # x, y, x2, y2
# Far faces on one axis, ascending, and the indices of their boxes in the same order.
Faces = tuple[list[int], list[int]]
# A live point's rays (ex, ey), how many box corners project onto it, and
# its support cap (None until ranked() takes it): the area of the rays'
# rectangle that the footprints below its z cover.
Live = tuple[int, int, int, Optional[int]]
_ABSENT = object()  # journal value of a key its container did not hold
# A state built with this many units indexes its boxes for _fits() and
# score() from its first push; one built with fewer never does. Benchmark
# instances have 6, 40 or 150 units, so any threshold from 7 to 40 picks
# the same paths. Measured as nodes/s against no index on node-budgeted
# solves (same_tree_ab.py, seeds 4-6, 2 rounds each, in both orientations;
# the same tree either way): the index runs anytime-deep at 2.3-2.5x,
# stability at 1.6x and tight-bound at 0.996-1.001, and exact-small, which
# never has more than 6 boxes, at 0.964-0.967.
_INDEX_UNITS = 16


def _ratio(value: float) -> tuple[int, int]:
    t = support_threshold(value)
    return t.numerator, t.denominator


class FlatState:
    """Boxes on the pallet in loading order, with their extreme points."""

    def __init__(self, pallet: Pallet, params: SolverParams, units: Sequence[Dims]):
        """``units``: the dims of the units that will be asked about. A
        point whose rays are shorter than their shortest short side (min of
        w and d), or that lies above the pallet height less their lowest
        height, takes none of them; with at least ``_INDEX_UNITS`` of them,
        the state indexes its boxes from the first push, and else never."""
        self.pallet = pallet
        self.boxes: list[Box] = []
        self.volume = 0
        # The sum over boxes of footprint times top: never less than the
        # volume under the height envelope, and kept by push and pop.
        self.columns = 0
        # Per depth k computed so far, the volume under the height envelope
        # (the top of the tallest box over each point of the floor) of the
        # first k boxes: unused_volume() extends it, pop() cuts it back.
        self._envelopes = [0]
        # Per box, the maxima of the projections xy, xz, yx, yz, zx, zy
        # (extreme_points.KINDS): the coordinate each corner slides back to.
        self._maxima: list[list[int]] = []
        # Per extreme point inside or under no box that some unit can take,
        # its runs (ex, ey), how many box corners project onto it and its
        # support cap; on an empty pallet, the origin once.
        self._live: dict[Point, Live] = {(0, 0, 0): (pallet.width, pallet.depth, 1, None)}
        self._short = min(min(u.w, u.d) for u in units)
        self._top = pallet.max_height - min(u.h for u in units)  # no unit fits above it
        self._undo: list[tuple[object, object, object]] = []  # (container, key, old)
        self._marks: list[int] = []  # journal length per push
        # Per height z asked about, the footprints of the boxes whose tops lie
        # in [z - gap, z], cut into disjoint pieces (_scan_below); a push or
        # pop drops only the heights its box's top reaches (_drop_below).
        self._below: dict[int, list[Footprint]] = {}
        # Index of the boxes for _fits() and score(), kept by every push and
        # pop: the boxes in the order of their tops, and the far faces z2, x2
        # and y2, each ascending with their box indices. It gives _fits() the
        # boxes above z in top order, not box order; _fits() answers the same
        # either way (any-tests, exact areas).
        self._index: Optional[tuple[list[Box], Faces, Faces, Faces]] = (
            ([], ([], []), ([], []), ([], [])) if len(units) >= _INDEX_UNITS else None)
        # Pairs that ranked() has scored, over every call so far.
        self.pairs_scored = 0
        self._gap = params.gap_tolerance
        self._p = (params.p_x, params.p_y, params.p_z)
        # A support minimum as an exact ratio num/den; num 0 means no test.
        self._vertical = _ratio(params.vertical_support_min)
        self._horiz_x = _ratio(params.horizontal_support_min_x)
        self._horiz_y = _ratio(params.horizontal_support_min_y)

    def push(self, x: int, y: int, z: int, w: int, d: int, h: int) -> None:
        """Place a w×d×h box at (x, y, z); it must lie inside the pallet and
        overlap no placed box."""
        x2, y2, z2 = x + w, y + d, z + h
        undo = self._undo
        self._marks.append(len(undo))
        # The points each corner whose maximum this push changes leaves and
        # lands on (a corner moves only where its far face lies below the
        # new box's, so it stays inside the pallet); the first box takes the
        # origin's place.
        left: list[Point] = [(0, 0, 0)] if not self.boxes else []
        came: list[Point] = []
        mxy = mxz = myx = myz = mzx = mzy = 0
        for (bx, by, bz, bx2, by2, bz2), m in zip(self.boxes, self._maxima):
            # The new box's corners slide back against this box ...
            if x2 < bx2:
                if y >= by2 and by2 > mxy:
                    mxy = by2
                if z >= bz2 and bz2 > mxz:
                    mxz = bz2
            if y2 < by2:
                if x >= bx2 and bx2 > myx:
                    myx = bx2
                if z >= bz2 and bz2 > myz:
                    myz = bz2
            if z2 < bz2:
                if x >= bx2 and bx2 > mzx:
                    mzx = bx2
                if y >= by2 and by2 > mzy:
                    mzy = by2
            # ... and this box's corners against the new box.
            if bx2 < x2:
                if by >= y2 and y2 > m[0]:
                    undo.append((m, 0, m[0]))
                    left.append((bx2, m[0], bz))
                    came.append((bx2, y2, bz))
                    m[0] = y2
                if bz >= z2 and z2 > m[1]:
                    undo.append((m, 1, m[1]))
                    left.append((bx2, by, m[1]))
                    came.append((bx2, by, z2))
                    m[1] = z2
            if by2 < y2:
                if bx >= x2 and x2 > m[2]:
                    undo.append((m, 2, m[2]))
                    left.append((m[2], by2, bz))
                    came.append((x2, by2, bz))
                    m[2] = x2
                if bz >= z2 and z2 > m[3]:
                    undo.append((m, 3, m[3]))
                    left.append((bx, by2, m[3]))
                    came.append((bx, by2, z2))
                    m[3] = z2
            if bz2 < z2:
                if bx >= x2 and x2 > m[4]:
                    undo.append((m, 4, m[4]))
                    left.append((m[4], by, bz2))
                    came.append((x2, by, bz2))
                    m[4] = x2
                if by >= y2 and y2 > m[5]:
                    undo.append((m, 5, m[5]))
                    left.append((bx, m[5], bz2))
                    came.append((bx, y2, bz2))
                    m[5] = y2
        p = self.pallet
        if x2 < p.width:
            came += (x2, mxy, z), (x2, y, mxz)
        if y2 < p.depth:
            came += (myx, y2, z), (x, y2, myz)
        if z2 < p.max_height:
            came += (mzx, y, z2), (x, mzy, z2)
        # A corner counts where it lands on or leaves a live point; landings
        # go first, so a point that one corner leaves and another lands on
        # keeps its entry. A point with corners but no entry lies inside or
        # under a box, or no unit fits there (a ray only shortens while boxes
        # are added), and stays so until the pop that unwinds its drop, which
        # first unwinds every later change. So a point with no entry that
        # this push leaves uncovered and some unit can take had no corner
        # before it: it is born with the corners that land on it.
        live = self._live
        born: dict[Point, int] = {}
        for pt in came:
            entry = live.get(pt)
            if entry is None:
                born[pt] = born.get(pt, 0) + 1
            else:
                undo.append((live, pt, entry))
                live[pt] = (entry[0], entry[1], entry[2] + 1, entry[3])
        for pt in left:
            entry = live.get(pt)
            if entry is not None:
                undo.append((live, pt, entry))
                if entry[2] > 1:
                    live[pt] = (entry[0], entry[1], entry[2] - 1, entry[3])
                else:
                    del live[pt]
        # A live point under the new box's top dies inside or under it, or
        # its rays stop at it: it is dropped once a ray is shorter than every
        # unit's short side, and a shorter ray takes no cap. The footprints
        # below the heights [z2, z2 + gap] gain the new box's, so the caps
        # there are cleared.
        dead = []
        short, gap = self._short, self._gap
        for pt, entry in live.items():
            px, py, pz = pt
            if pz < z2:
                if y <= py < y2:
                    if x <= px < x2 or px < x and x - px < short:
                        dead.append(pt)
                    elif px < x and x - px < entry[0]:
                        undo.append((live, pt, entry))
                        live[pt] = (x - px, entry[1], entry[2], None)
                elif x <= px < x2 and py < y and y - py < entry[1]:
                    if y - py < short:
                        dead.append(pt)
                    else:
                        undo.append((live, pt, entry))
                        live[pt] = (entry[0], y - py, entry[2], None)
            elif pz <= z2 + gap and entry[3] is not None:
                undo.append((live, pt, entry))
                live[pt] = (entry[0], entry[1], entry[2], None)
        for pt in dead:
            undo.append((live, pt, live.pop(pt)))
        boxes = self.boxes
        boxes.append((x, y, z, x2, y2, z2))
        self._maxima.append([mxy, mxz, myx, myz, mzx, mzy])
        self.volume += w * d * h
        self.columns += w * d * z2
        self._drop_below(z2)
        index = self._index
        if index is not None:
            # The new box has the highest index: inserted after its equal
            # faces, it keeps them in ascending box order.
            by_top, (zs, z_ids), (xs, x_ids), (ys, y_ids) = index
            k = len(boxes) - 1
            i = bisect_right(zs, z2)
            by_top.insert(i, boxes[k])
            zs.insert(i, z2)
            z_ids.insert(i, k)
            i = bisect_right(xs, x2)
            xs.insert(i, x2)
            x_ids.insert(i, k)
            i = bisect_right(ys, y2)
            ys.insert(i, y2)
            y_ids.insert(i, k)
        # A new point runs against every box whose top lies above it.
        for pt, n in born.items():
            px, py, pz = pt
            if pz > self._top:
                continue
            ex, ey = p.width - px, p.depth - py
            for bx, by, _, bx2, by2, bz2 in (
                    boxes if index is None else by_top[bisect_right(zs, pz):]):
                if bz2 > pz:
                    if by <= py < by2:
                        if bx <= px < bx2:
                            break
                        if px < bx and bx - px < ex:
                            ex = bx - px
                    elif bx <= px < bx2 and py < by and by - py < ey:
                        ey = by - py
            else:
                if ex >= short and ey >= short:
                    undo.append((live, pt, _ABSENT))
                    live[pt] = (ex, ey, n, None)

    def pop(self) -> None:
        """Remove the last pushed box and restore the state before it."""
        x, y, z, x2, y2, z2 = self.boxes.pop()
        self._maxima.pop()
        self.volume -= (x2 - x) * (y2 - y) * (z2 - z)
        self.columns -= (x2 - x) * (y2 - y) * z2
        undo = self._undo
        mark = self._marks.pop()
        entries = undo[mark:]
        del undo[mark:]
        for c, key, old in reversed(entries):
            if old is _ABSENT:
                del c[key]
            else:
                c[key] = old
        self._drop_below(z2)
        index = self._index
        if index is not None:
            # The popped box has the highest index, so it is the last of its
            # equal faces.
            by_top, (zs, z_ids), (xs, x_ids), (ys, y_ids) = index
            i = bisect_right(zs, z2) - 1
            del by_top[i], zs[i], z_ids[i]
            i = bisect_right(xs, x2) - 1
            del xs[i], x_ids[i]
            i = bisect_right(ys, y2) - 1
            del ys[i], y_ids[i]
        del self._envelopes[len(self.boxes) + 1:]

    def ranked(self, w: int, d: int, h: int, cut: int, tick: Callable[[], None]
               ) -> list[Ranked]:
        """The ``cut`` best pairs of a w×d×h unit that fit, best first: the
        tests' ``reference.ranking.rank_and_cut`` over
        ``reference.ranking.scored_candidates``.

        A pair meets, in order: the ceiling; the rays (a box longer than a
        ray meets what the ray met, or leaves the pallet); above the gap,
        the point's support cap (the area of its rays' rectangle that the
        footprints below its z cover, never less than the pair's own:
        kept in the point's entry by an earlier call, or taken now) and the
        support sum (the area of its footprint that they cover, summed over
        the disjoint pieces kept below z): each must reach num/den of its
        footprint. Each pair that passes is scored; the pairs are sorted,
        and ``_fits``, which tests the rules these leave, is asked in that
        order until ``cut`` pairs are kept. No test before ``_fits`` rejects
        a pair that ``check_placement`` accepts. ``tick`` is called once
        per call; once per point that passes the rays and that no kept cap
        rejects, before its work that grows with the number of boxes (a cap
        not yet taken, the sums, the scores); and once before each
        ``_fits``."""
        tick()
        score = self.score
        ceiling = self.pallet.max_height - h
        cache = self._below
        gap = self._gap
        num, den = self._vertical
        need = num * w * d
        pairs: list[Ranked] = []
        live, undo = self._live, self._undo
        for (x, y, z), (ex, ey, n, cap) in live.items():
            if z > ceiling:
                continue
            flat = w <= ex and d <= ey
            turned = d <= ex and w <= ey
            if not (flat or turned):
                continue
            if num and z > gap:
                if cap is not None and cap * den < need:
                    continue  # neither pair is supported
                tick()
                below = cache.get(z)
                if below is None:
                    below = self._scan_below(z)
                if cap is None:
                    # The support cap: the overlaps of the rays' rectangle
                    # (x..rx, y..ry), which holds both pairs; kept until the
                    # pop of the state's last box, a push that adds a
                    # footprint below z, or one that shortens a ray.
                    rx, ry = x + ex, y + ey
                    cap = 0
                    for bx, by, bx2, by2 in below:
                        if x < bx2 and y < by2 and bx < rx and by < ry:
                            cap += (((rx if rx < bx2 else bx2) - (bx if bx > x else x))
                                    * ((ry if ry < by2 else by2) - (by if by > y else y)))
                    undo.append((live, (x, y, z), (ex, ey, n, None)))
                    live[x, y, z] = ex, ey, n, cap
                    if cap * den < need:
                        continue
                # The overlaps of the flat (x..fx, y..fy) and the turned
                # (x..tx, y..ty) footprint, summed in one pass.
                fx, fy, tx, ty = x + w, y + d, x + d, y + w
                flat_sum = turned_sum = 0
                for bx, by, bx2, by2 in below:
                    if x < bx2 and y < by2:
                        u = bx if bx > x else x
                        v = by if by > y else y
                        if bx < fx and by < fy:
                            flat_sum += (((fx if fx < bx2 else bx2) - u)
                                         * ((fy if fy < by2 else by2) - v))
                        if bx < tx and by < ty:
                            turned_sum += (((tx if tx < bx2 else bx2) - u)
                                           * ((ty if ty < by2 else by2) - v))
                flat = flat and flat_sum * den >= need
                turned = turned and turned_sum * den >= need
            else:
                tick()
            if flat:
                pairs.append((-score(x, y, z, w, d, h), z, y, x, False))
            if turned:
                pairs.append((-score(x, y, z, d, w, h), z, y, x, True))
        self.pairs_scored += len(pairs)
        pairs.sort()
        fits = self._fits
        kept: list[Ranked] = []
        for pair in pairs:
            if len(kept) == cut:
                break
            _, z, y, x, rotated = pair
            tick()
            if fits(x, y, z, d, w, h) if rotated else fits(x, y, z, w, d, h):
                kept.append(pair)
        return kept

    def _fits(self, x: int, y: int, z: int, w: int, d: int, h: int) -> bool:
        """Whether a w×d×h pair at (x, y, z) that ``ranked``'s own tests
        admit (the ceiling, the rays and, above the gap, the support sum)
        meets the rules those tests leave: no box above z over its
        footprint, then horizontal support. The rays and the ceiling keep
        the pair inside the pallet, and the sum is its supported area."""
        x2, y2, z2 = x + w, y + d, z + h
        gap = self._gap
        if self._index is not None:
            by_top, (tops, _), _, _ = self._index
            above = by_top[bisect_right(tops, z):]
        else:
            above = [b for b in self.boxes if b[5] > z]
        # No box whose top lies above z may overlap the footprint.
        for bx, by, _, bx2, by2, _ in above:
            if x < bx2 and bx < x2 and y < by2 and by < y2:
                return False
        num, den = self._horiz_x
        if num and x > gap:
            rects = [
                (max(y, by), max(z, bz), min(y2, by2), min(z2, bz2))
                for bx, by, bz, bx2, by2, bz2 in above
                if bz < z2 and 0 <= x - bx2 <= gap and y < by2 and by < y2
            ]
            if not _covers(rects, d * h, num, den):
                return False
        num, den = self._horiz_y
        if num and y > gap:
            rects = [
                (max(x, bx), max(z, bz), min(x2, bx2), min(z2, bz2))
                for bx, by, bz, bx2, by2, bz2 in above
                if bz < z2 and 0 <= y - by2 <= gap and x < bx2 and bx < x2
            ]
            if not _covers(rects, w * h, num, den):
                return False
        return True

    def _scan_below(self, z: int) -> list[Footprint]:
        """The footprints of the boxes whose tops lie in [z - gap, z], cut
        into pairwise disjoint pieces, kept until a push or pop of a box
        whose top lies there. Two of them overlap only where one box stands
        on the other within the gap, so is no taller than the gap: the
        others are kept whole, and each footprint of such a short box as
        its parts outside the pieces kept before it."""
        gap = self._gap
        lo = z - gap
        if self._index is not None:  # only the boxes whose tops lie in [lo, z]
            by_top, (tops, _), _, _ = self._index
            window = by_top[bisect_left(tops, lo):bisect_right(tops, z)]
        else:
            window = [b for b in self.boxes if lo <= b[5] <= z]
        below = self._below[z] = [(b[0], b[1], b[3], b[4]) for b in window if b[5] - b[2] > gap]
        if len(below) < len(window):
            for bx, by, bz, bx2, by2, bz2 in window:
                if bz2 - bz <= gap:
                    pieces = [(bx, by, bx2, by2)]
                    for kept in below:
                        pieces = [part for piece in pieces for part in _outside(piece, kept)]
                    below += pieces
        return below

    def _drop_below(self, top: int) -> None:
        """Drop the kept footprints of the heights a box whose top lies at
        ``top`` belongs to, [top, top + gap]: a walk over those heights or
        over the kept ones, whichever is shorter."""
        cache = self._below
        gap = self._gap
        if gap < len(cache):
            for z in range(top, top + gap + 1):
                cache.pop(z, None)
        else:
            for z in [z for z in cache if top <= z <= top + gap]:
                del cache[z]

    def score(self, x: int, y: int, z: int, w: int, d: int, h: int) -> float:
        """Coplanarity score of a box at (x, y, z), bit-identical to the
        tests' ``reference.ranking.evaluate``: the same index sets, filled
        in the same order, summed in the same order."""
        p_x, p_y, p_z = self._p
        top, fx, fy = z + h, x + w, y + d
        boxes = self.boxes
        if self._index is not None:
            _, (zs, z_ids), (xs, x_ids), (ys, y_ids) = self._index
            n, hz, hx, hy = len(boxes), top + p_z, fx + p_x, fy + p_y
            lz, lx, ly = (bisect_left(zs, top - p_z), bisect_left(xs, fx - p_x),
                          bisect_left(ys, fy - p_y))
            # No face in any window: no term.
            if ((lz == n or zs[lz] > hz) and (lx == n or xs[lx] > hx)
                    and (ly == n or ys[ly] > hy)):
                return 0.0
            s_z = z_ids[lz:bisect_right(zs, hz, lz)]
            s_x = x_ids[lx:bisect_right(xs, hx, lx)]
            s_y = y_ids[ly:bisect_right(ys, hy, ly)]
            # A set of two or more iterates in the order its indices were
            # added in; the scan adds them in ascending order.
            s_z = s_z if len(s_z) < 2 else set(sorted(s_z))
            s_x = s_x if len(s_x) < 2 else set(sorted(s_x))
            s_y = s_y if len(s_y) < 2 else set(sorted(s_y))
        else:
            lz, hz, lx, hx, ly, hy = top - p_z, top + p_z, fx - p_x, fx + p_x, fy - p_y, fy + p_y
            for _, _, _, bx2, by2, bz2 in boxes:
                if lz <= bz2 <= hz or lx <= bx2 <= hx or ly <= by2 <= hy:
                    break
            else:
                return 0.0  # no face in any window: no term
            s_z = set()
            s_x = set()
            s_y = set()
            for j, (_, _, _, bx2, by2, bz2) in enumerate(boxes):
                if lz <= bz2 <= hz:
                    s_z.add(j)
                if lx <= bx2 <= hx:
                    s_x.add(j)
                if ly <= by2 <= hy:
                    s_y.add(j)
        cx = x + w / 2
        cy = y + d / 2
        cz = z + h / 2
        score = 0.0
        for j in s_z:
            bx, by, _, bx2, by2, _ = boxes[j]
            bw, bd = bx2 - bx, by2 - by
            dist = math.hypot(cx - (bx + bw / 2), cy - (by + bd / 2))
            score += bw * bd / max(dist, DISTANCE_CLAMP)
        for j in s_x:
            _, by, bz, _, by2, bz2 = boxes[j]
            bd, bh = by2 - by, bz2 - bz
            dist = math.hypot(cy - (by + bd / 2), cz - (bz + bh / 2))
            score += bd * bh / max(dist, DISTANCE_CLAMP)
        for j in s_y:
            bx, _, bz, bx2, _, bz2 = boxes[j]
            bw, bh = bx2 - bx, bz2 - bz
            dist = math.hypot(cx - (bx + bw / 2), cz - (bz + bh / 2))
            score += bw * bh / max(dist, DISTANCE_CLAMP)
        return score

    def unused_volume(self) -> int:
        """Pallet volume above the height envelope, as ``grid.unused_volume``."""
        envelopes = self._envelopes
        for k in range(len(envelopes) - 1, len(self.boxes)):
            envelopes.append(envelopes[k] + self._envelope_rise(k))
        return self.pallet.volume() - envelopes[-1]

    def _envelope_rise(self, k: int) -> int:
        """Volume the envelope gains from box k over the boxes before it:
        over each part of its footprint, how far its top rises above the
        tallest of them there."""
        x, y, _, x2, y2, top = self.boxes[k]
        rects = [
            (max(x, bx), max(y, by), min(x2, bx2), min(y2, by2), min(bz2, top))
            for bx, by, _, bx2, by2, bz2 in self.boxes[:k]
            if x < bx2 and bx < x2 and y < by2 and by < y2
        ]
        if not rects:
            return (x2 - x) * (y2 - y) * top
        xs = sorted({x, x2}.union(*((r[0], r[2]) for r in rects)))
        ys = sorted({y, y2}.union(*((r[1], r[3]) for r in rects)))
        heights = [[0] * (len(ys) - 1) for _ in range(len(xs) - 1)]
        for u1, v1, u2, v2, h in rects:
            b0, b1 = bisect_left(ys, v1), bisect_left(ys, v2)
            for a in range(bisect_left(xs, u1), bisect_left(xs, u2)):
                row = heights[a]
                for b in range(b0, b1):
                    if h > row[b]:
                        row[b] = h
        rise = 0
        for a, row in enumerate(heights):
            wa = xs[a + 1] - xs[a]
            for b, h in enumerate(row):
                rise += (top - h) * wa * (ys[b + 1] - ys[b])
        return rise


def _covers(rects: list[tuple[int, int, int, int]], face: int, num: int, den: int) -> bool:
    """Whether the union of ``rects`` covers at least num/den of ``face``."""
    if len(rects) == 1:  # the common case, without the sweep
        u1, v1, u2, v2 = rects[0]
        area = (u2 - u1) * (v2 - v1)
    else:
        area = rect_union_area(rects)
    return area * den >= num * face


def _outside(piece: Footprint, cut: Footprint) -> list[Footprint]:
    """The parts of ``piece`` outside ``cut``: ``piece`` itself if they do
    not overlap, else at most four disjoint rectangles."""
    x, y, x2, y2 = piece
    cx, cy, cx2, cy2 = cut
    if not (x < cx2 and cx < x2 and y < cy2 and cy < y2):
        return [piece]
    # The strips left and right of the cut, then below and above it.
    u, u2 = max(x, cx), min(x2, cx2)
    parts = [(x, y, cx, y2), (cx2, y, x2, y2), (u, y, u2, cy), (u, cy2, u2, y2)]
    return [p for p in parts if p[0] < p[2] and p[1] < p[3]]
