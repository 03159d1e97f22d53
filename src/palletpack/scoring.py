"""The ranking rule's key and the score's distance clamp.

A placement scores higher when its support surfaces (top, +x face, +y
face) are coplanar, within tolerance, with those of already placed units,
weighted by the facing area and damped by the center distance. Favouring
coplanar surfaces merges small support patches into large ones, which
keeps more follow-up placements feasible. ``FlatState.score`` computes the
score and ``FlatState.ranked`` ranks by this key; the plain reference they
are tested against is the tests' ``reference.ranking``.
"""

from __future__ import annotations

# Distances below this clamp count as the clamp; guards the division for
# (near-)coincident face centers, which non-overlapping geometry cannot
# quite exclude on the x/y terms.
DISTANCE_CLAMP = 1e-6

# A scored candidate: (-score, z, y, x, rotated). Sorting these tuples is
# the ranking rule.
Ranked = tuple[float, int, int, int, bool]
