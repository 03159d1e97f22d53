"""Pallet-space discretization and the unused-volume measure.

Corner points of the placed units are projected onto the horizontal axes,
giving cut arrays along x and y. The cells of the resulting mesh carry the
height envelope: the top of the tallest unit whose footprint covers the
cell. The unused volume is everything between that envelope and the pallet
ceiling, and the knapsack bound takes it as the capacity left for later
units. Later units land at or above the envelope because the feasibility
rules load from above: no placed unit whose top lies above a unit's bottom
may overlap its footprint (``feasibility.check_overlap_bounds``). So the
space under an overhang, which the bound does not count, takes no unit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .model import PackingState


@dataclass(frozen=True)
class GridAxes:
    """Strictly increasing cut coordinates along x and y.

    Both arrays start at 0, end at the pallet extent, and contain every
    face coordinate of every placed unit on that axis.
    """

    dx: tuple[int, ...]
    dy: tuple[int, ...]


def build_axes(state: PackingState) -> GridAxes:
    """Deduplicated ascending cut arrays including the pallet boundaries."""
    xs = {0, state.pallet.width}
    ys = {0, state.pallet.depth}
    for pl in state.placements:
        xs.add(pl.x)
        xs.add(pl.x2)
        ys.add(pl.y)
        ys.add(pl.y2)
    return GridAxes(tuple(sorted(xs)), tuple(sorted(ys)))


def _cell_heights(state: PackingState, axes: GridAxes) -> list[list[int]]:
    dx, dy = axes.dx, axes.dy
    heights = [[0] * (len(dy) - 1) for _ in range(len(dx) - 1)]
    for pl in state.placements:
        a0 = bisect_left(dx, pl.x)
        a1 = bisect_left(dx, pl.x2)
        b0 = bisect_left(dy, pl.y)
        b1 = bisect_left(dy, pl.y2)
        top = pl.z2
        for a in range(a0, a1):
            row = heights[a]
            for b in range(b0, b1):
                if top > row[b]:
                    row[b] = top
    return heights


def unused_volume(state: PackingState) -> int:
    """Pallet volume above the height envelope and below max_height."""
    axes = build_axes(state)
    dx, dy = axes.dx, axes.dy
    heights = _cell_heights(state, axes)
    zp = state.pallet.max_height
    total = 0
    for a in range(len(dx) - 1):
        wa = dx[a + 1] - dx[a]
        row = heights[a]
        for b in range(len(dy) - 1):
            total += (zp - row[b]) * wa * (dy[b + 1] - dy[b])
    return total
