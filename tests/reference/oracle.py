"""Brute-force reference implementations.

These exist to validate the production code paths: a millimeter-column
voxel count for the unused-volume formula, a bitset subset-sum table for
the knapsack bound, and, for end-to-end prune safety, the solver's own
search with the bound switched off, so that it differs from ``solve`` only
in the pruning under test. The first two trade all performance for
directness; all three are only meant for desk-scale inputs.
"""

from __future__ import annotations

from dataclasses import replace
from math import gcd
from typing import Sequence

from palletpack.model import PackingState, Pallet, Solution, SolverParams, TransportUnit
from palletpack.search import _Searcher

MAX_VOXELS = 10**8
MAX_DP_SUM = 10**6
MAX_UNITS = 6


def voxel_unused_volume(state: PackingState) -> int:
    """Unused pallet volume by direct column counting.

    Walks the floor in 1 mm columns, takes the tallest unit top over each
    column, and adds up the space left to the ceiling.
    """
    p = state.pallet
    if p.width * p.depth * p.max_height > MAX_VOXELS:
        raise ValueError("pallet too large to voxelize")
    heights = [[0] * p.depth for _ in range(p.width)]
    for pl in state.placements:
        top = pl.z2
        for a in range(pl.x, pl.x2):
            col = heights[a]
            for b in range(pl.y, pl.y2):
                if top > col[b]:
                    col[b] = top
    zp = p.max_height
    return sum(zp - h for col in heights for h in col)


def dp_knapsack(volumes: Sequence[int], capacity: int) -> int:
    """Classic subset-sum maximization via a (bitset) reachability table."""
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    vols = [v for v in volumes if 0 < v <= capacity]
    if not vols:
        return 0
    g = gcd(*vols) if len(vols) > 1 else vols[0]
    scaled = [v // g for v in vols]
    cap = capacity // g
    if min(sum(scaled), cap) > MAX_DP_SUM:
        raise ValueError("instance too large for the dp table")
    cap = min(cap, sum(scaled))
    reachable = 1
    for v in scaled:
        reachable |= reachable << v
    reachable &= (1 << (cap + 1)) - 1
    return (reachable.bit_length() - 1) * g


class _Unbounded(_Searcher):
    """The solver's search with no bound and no clock."""

    def _closed(self, idx: int, depth: int) -> bool:
        return False

    def _tick(self) -> None:
        pass


def exhaustive_solve(
    units: Sequence[TransportUnit],
    pallet: Pallet,
    params: SolverParams,
) -> Solution:
    """The solver's search with the caller's branch cap, no bound, no clock.

    Same candidates, feasibility rules, orientations, picking order with
    skipping, candidate ordering and incumbent tie-break as ``solve``; it
    differs only in never pruning on the knapsack bound and never
    stopping on ``time_limit_ms`` or ``max_nodes``.
    """
    if len(units) > MAX_UNITS:
        raise ValueError(f"instance exceeds oracle limit of {MAX_UNITS} units")
    return _Unbounded(units, pallet, replace(params, max_nodes=None)).run()
