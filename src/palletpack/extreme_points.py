"""Candidate positions for the next unit.

Each placed unit contributes six projection points: its three outer corner
points slid back against the nearest qualifying face of another unit (or
the pallet side) in the negative direction of one axis. The candidate set
deliberately does not cover every possible position; it keeps the search
tree small while favouring tight placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import PackingState

# Projection kinds, in tie-break order. "xy" slides the +x corner along -y,
# "xz" along -z, and so on. "origin" marks the seed position of an empty
# pallet.
KINDS = ("xy", "xz", "yx", "yz", "zx", "zy")


@dataclass(frozen=True)
class CandidatePosition:
    coords: tuple[int, int, int]
    source_unit: Optional[str]
    kind: str


def generate(state: PackingState) -> list[CandidatePosition]:
    """Candidate positions for the next placement, deduplicated and in
    deterministic order (ascending z, y, x, then kind).

    An empty pallet yields the single origin position. Points at or beyond
    the pallet extents can never host a unit and are dropped.
    """
    if not state.placements:
        return [CandidatePosition((0, 0, 0), None, "origin")]

    pls = state.placements
    raw: list[tuple[tuple[int, int, int], int, int]] = []  # (coords, kind_rank, source_idx)
    for i, p in enumerate(pls):
        px2, py2, pz2 = p.x2, p.y2, p.z2

        # xy: corner (x+w, ., z) pushed to the deepest +y face behind it
        m = 0
        for q in pls:
            if px2 < q.x2 and p.y >= q.y2 and q.y2 > m:
                m = q.y2
        raw.append(((px2, m, p.z), 0, i))

        # xz
        m = 0
        for q in pls:
            if px2 < q.x2 and p.z >= q.z2 and q.z2 > m:
                m = q.z2
        raw.append(((px2, p.y, m), 1, i))

        # yx
        m = 0
        for q in pls:
            if py2 < q.y2 and p.x >= q.x2 and q.x2 > m:
                m = q.x2
        raw.append(((m, py2, p.z), 2, i))

        # yz
        m = 0
        for q in pls:
            if py2 < q.y2 and p.z >= q.z2 and q.z2 > m:
                m = q.z2
        raw.append(((p.x, py2, m), 3, i))

        # zx
        m = 0
        for q in pls:
            if pz2 < q.z2 and p.x >= q.x2 and q.x2 > m:
                m = q.x2
        raw.append(((m, p.y, pz2), 4, i))

        # zy
        m = 0
        for q in pls:
            if pz2 < q.z2 and p.y >= q.y2 and q.y2 > m:
                m = q.y2
        raw.append(((p.x, m, pz2), 5, i))

    pallet = state.pallet
    raw = [
        r for r in raw
        if r[0][0] < pallet.width and r[0][1] < pallet.depth and r[0][2] < pallet.max_height
    ]
    raw.sort(key=lambda r: (r[0][2], r[0][1], r[0][0], r[1], r[2]))

    out: list[CandidatePosition] = []
    seen: set[tuple[int, int, int]] = set()
    for coords, kind_rank, src in raw:
        if coords in seen:
            continue
        seen.add(coords)
        out.append(CandidatePosition(coords, pls[src].unit_id, KINDS[kind_rank]))
    return out
