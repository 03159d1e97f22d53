"""Placement constraints: overlap/bounds, vertical and horizontal support.

Support fractions are exact rationals over integer face areas, so a
threshold of 1.0 really does demand full contact and 0.5 accepts exactly
half. Surfaces within ``gap`` millimeters of the supported plane count at
full weight; the pallet floor and the x=0 / y=0 boundary planes (pallet
wrap side) count as full support for faces lying within ``gap`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import Dims, PackingState, SolverParams

Rect = tuple[int, int, int, int]  # (u1, v1, u2, v2), half-open on the plane


def rect_union_area(rects: list[Rect]) -> int:
    """Exact area of the union of axis-aligned integer rectangles.

    Coordinate-compressed sweep along u: within each strip the covered
    v-length is the union of the intervals of rectangles spanning it.
    """
    rects = [r for r in rects if r[0] < r[2] and r[1] < r[3]]
    if not rects:
        return 0
    us = sorted({r[0] for r in rects} | {r[2] for r in rects})
    area = 0
    for a, b in zip(us, us[1:]):
        spans = sorted((r[1], r[3]) for r in rects if r[0] <= a and r[2] >= b)
        if not spans:
            continue
        covered = 0
        cur_lo, cur_hi = spans[0]
        for lo, hi in spans[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        covered += cur_hi - cur_lo
        area += covered * (b - a)
    return area


@dataclass(frozen=True)
class SupportReport:
    vertical_fraction: Fraction
    horiz_x_fraction: Fraction
    horiz_y_fraction: Fraction
    feasible: bool


def check_overlap_bounds(state: PackingState, pos: tuple[int, int, int], dims: Dims) -> bool:
    """True iff the box at ``pos`` stays inside the pallet and lies in and
    under no placed box: no box whose top is above its bottom overlaps its
    footprint. Units are loaded from above, so this rules out both shared
    volume (face contact is fine) and a unit under an overhang."""
    x, y, z = pos
    if x < 0 or y < 0 or z < 0:
        return False
    p = state.pallet
    if x + dims.w > p.width or y + dims.d > p.depth or z + dims.h > p.max_height:
        return False
    x2, y2 = x + dims.w, y + dims.d
    for pl in state.placements:
        if x < pl.x2 and pl.x < x2 and y < pl.y2 and pl.y < y2 and z < pl.z2:
            return False
    return True


def vertical_support(
    state: PackingState, pos: tuple[int, int, int], dims: Dims, gap: int
) -> Fraction:
    """Fraction of the bottom face resting on unit tops within ``gap``.

    A bottom face within ``gap`` of the floor is fully supported by the
    pallet itself.
    """
    x, y, z = pos
    if z <= gap:
        return Fraction(1)
    x2, y2 = x + dims.w, y + dims.d
    rects = []
    for pl in state.placements:
        if 0 <= z - pl.z2 <= gap:
            rects.append((max(x, pl.x), max(y, pl.y), min(x2, pl.x2), min(y2, pl.y2)))
    return Fraction(rect_union_area(rects), dims.w * dims.d)


def horizontal_support(
    state: PackingState, pos: tuple[int, int, int], dims: Dims, gap: int
) -> tuple[Fraction, Fraction]:
    """Supported fractions of the faces whose normals point along -x and -y.

    Only those two faces matter; the opposite sides are held by pallet
    wrap. Backing surfaces are the +x (resp. +y) faces of placed units
    within ``gap`` of the face plane; a face within ``gap`` of the pallet
    boundary is fully backed.
    """
    x, y, z = pos
    y2, z2 = y + dims.d, z + dims.h
    x2 = x + dims.w

    if x <= gap:
        fx = Fraction(1)
    else:
        rects = []
        for pl in state.placements:
            if 0 <= x - pl.x2 <= gap:
                rects.append((max(y, pl.y), max(z, pl.z), min(y2, pl.y2), min(z2, pl.z2)))
        fx = Fraction(rect_union_area(rects), dims.d * dims.h)

    if y <= gap:
        fy = Fraction(1)
    else:
        rects = []
        for pl in state.placements:
            if 0 <= y - pl.y2 <= gap:
                rects.append((max(x, pl.x), max(z, pl.z), min(x2, pl.x2), min(z2, pl.z2)))
        fy = Fraction(rect_union_area(rects), dims.w * dims.h)

    return fx, fy


@lru_cache(maxsize=64)
def support_threshold(value: float) -> Fraction:
    """A support minimum as an exact fraction.

    The float is read as its decimal text, so 0.8 means 8/10 and an exactly
    80%-supported face passes the inclusive comparison.
    """
    return Fraction(str(value))


def check_placement(
    state: PackingState, pos: tuple[int, int, int], dims: Dims, params: SolverParams
) -> SupportReport:
    """Evaluate all placement constraints for one position/orientation."""
    if not check_overlap_bounds(state, pos, dims):
        return SupportReport(Fraction(0), Fraction(0), Fraction(0), False)
    gap = params.gap_tolerance
    vf = vertical_support(state, pos, dims, gap)
    fx, fy = horizontal_support(state, pos, dims, gap)
    ok = (
        vf >= support_threshold(params.vertical_support_min)
        and fx >= support_threshold(params.horizontal_support_min_x)
        and fy >= support_threshold(params.horizontal_support_min_y)
    )
    return SupportReport(vf, fx, fy, ok)
