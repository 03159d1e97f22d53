"""Deterministic SVG rendering of a pallet configuration.

One top-down panel per distinct placement z-level, plus a side (x-z)
elevation. Output is a pure function of the solution: stable
element order, fixed palette keyed by a content hash of the unit id.
"""

from __future__ import annotations

import hashlib

from .model import Solution

PANEL = 240
MARGIN = 24
LABEL_H = 16

_PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
    "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
)


def _color(unit_id: str) -> str:
    digest = hashlib.sha256(unit_id.encode("utf-8")).digest()
    return _PALETTE[digest[0] % len(_PALETTE)]


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _rect(x: float, y: float, w: float, h: float, fill: str, extra: str = "") -> str:
    return (
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'fill="{fill}" stroke="#333333" stroke-width="1"{extra}/>'
    )


def _text(x: float, y: float, s: str, size: int = 10) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{size}">{s}</text>'
    )


def render_svg(solution: Solution) -> str:
    """SVG document for a solution; byte-identical across renders."""
    pallet = solution.pallet
    levels = sorted({pl.z for pl in solution.placements}) or [0]
    panels = len(levels) + 1  # top-down panels plus the side elevation

    top_scale = PANEL / max(pallet.width, pallet.depth)
    side_scale = PANEL / max(pallet.width, pallet.max_height)
    total_w = MARGIN + panels * (PANEL + MARGIN)
    total_h = MARGIN + LABEL_H + PANEL + MARGIN

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
        f'<rect x="0" y="0" width="{total_w}" height="{total_h}" fill="#ffffff"/>',
    ]

    oy = MARGIN + LABEL_H
    for i, z in enumerate(levels):
        ox = MARGIN + i * (PANEL + MARGIN)
        parts.append(_text(ox, MARGIN + LABEL_H - 6, f"top view, z={z}", 12))
        parts.append(_rect(ox, oy, pallet.width * top_scale, pallet.depth * top_scale, "none"))
        for pl in solution.placements:
            if pl.z != z:
                continue
            x = ox + pl.x * top_scale
            y = oy + (pallet.depth - pl.y2) * top_scale
            parts.append(_rect(
                x, y, pl.oriented_dims.w * top_scale, pl.oriented_dims.d * top_scale,
                _color(pl.unit_id),
            ))
            parts.append(_text(x + 2, y + 11, pl.unit_id))

    ox = MARGIN + len(levels) * (PANEL + MARGIN)
    parts.append(_text(ox, MARGIN + LABEL_H - 6, "side view (x-z)", 12))
    parts.append(_rect(ox, oy, pallet.width * side_scale, pallet.max_height * side_scale, "none"))
    # draw far rows first so nearer units (small y) end up on top
    for pl in sorted(solution.placements, key=lambda p: (-p.y, p.unit_id)):
        x = ox + pl.x * side_scale
        y = oy + (pallet.max_height - pl.z2) * side_scale
        parts.append(_rect(
            x, y, pl.oriented_dims.w * side_scale, pl.oriented_dims.h * side_scale,
            _color(pl.unit_id),
        ))
        parts.append(_text(x + 2, y + 11, pl.unit_id))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
