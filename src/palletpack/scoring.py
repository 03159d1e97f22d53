"""Ranking of feasible placements.

A placement scores higher when its support surfaces (top, +x face, +y
face) are coplanar, within tolerance, with those of already placed units,
weighted by the facing area and damped by the center distance. Favouring
coplanar surfaces merges small support patches into large ones, which
keeps more follow-up placements feasible.
"""

from __future__ import annotations

import math

from . import extreme_points
from .feasibility import check_placement
from .model import Dims, PackingState, SolverParams, TransportUnit, oriented

# Distances below this clamp count as the clamp; guards the division for
# (near-)coincident face centers, which non-overlapping geometry cannot
# quite exclude on the x/y terms.
DISTANCE_CLAMP = 1e-6

# A scored candidate: (-score, z, y, x, rotated). Sorting these tuples is
# the ranking rule.
Ranked = tuple[float, int, int, int, bool]


def coplanar_sets(
    state: PackingState, pos: tuple[int, int, int], dims: Dims, params: SolverParams
) -> tuple[set[int], set[int], set[int]]:
    """Indices of placements whose top / +x face / +y face is coplanar,
    within p_z / p_x / p_y, with the candidate's corresponding face."""
    x, y, z = pos
    top = z + dims.h
    fx = x + dims.w
    fy = y + dims.d
    s_z: set[int] = set()
    s_x: set[int] = set()
    s_y: set[int] = set()
    for j, pl in enumerate(state.placements):
        if abs(pl.z2 - top) <= params.p_z:
            s_z.add(j)
        if abs(pl.x2 - fx) <= params.p_x:
            s_x.add(j)
        if abs(pl.y2 - fy) <= params.p_y:
            s_y.add(j)
    return s_z, s_x, s_y


def evaluate(
    state: PackingState, pos: tuple[int, int, int], dims: Dims, params: SolverParams
) -> float:
    """Support-plane defragmentation score of a feasible candidate."""
    x, y, z = pos
    cx = x + dims.w / 2
    cy = y + dims.d / 2
    cz = z + dims.h / 2
    s_z, s_x, s_y = coplanar_sets(state, pos, dims, params)
    score = 0.0
    for j in s_z:
        pl = state.placements[j]
        od = pl.oriented_dims
        dist = math.hypot(cx - (pl.x + od.w / 2), cy - (pl.y + od.d / 2))
        score += od.w * od.d / max(dist, DISTANCE_CLAMP)
    for j in s_x:
        pl = state.placements[j]
        od = pl.oriented_dims
        dist = math.hypot(cy - (pl.y + od.d / 2), cz - (pl.z + od.h / 2))
        score += od.d * od.h / max(dist, DISTANCE_CLAMP)
    for j in s_y:
        pl = state.placements[j]
        od = pl.oriented_dims
        dist = math.hypot(cx - (pl.x + od.w / 2), cz - (pl.z + od.h / 2))
        score += od.w * od.h / max(dist, DISTANCE_CLAMP)
    return score


def rank_and_cut(candidates: list[Ranked], max_branches: int) -> list[Ranked]:
    """Best candidates first, at most ``max_branches`` of them.

    Ties break toward low z, then y, then x, unrotated before rotated, so
    the search tree is reproducible.
    """
    return sorted(candidates)[:max_branches]


def scored_candidates(
    state: PackingState, unit: TransportUnit, params: SolverParams
) -> list[Ranked]:
    """All feasible (position, orientation) combinations for ``unit``,
    scored but not yet ranked."""
    out: list[Ranked] = []
    for cand in extreme_points.generate(state):
        x, y, z = cand.coords
        for rotated in (False, True):
            dims = oriented(unit, rotated)
            if check_placement(state, cand.coords, dims, params).feasible:
                out.append((-evaluate(state, cand.coords, dims, params), z, y, x, rotated))
    return out
