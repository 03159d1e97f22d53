"""Value types shared by every part of the solver.

All geometry is integer millimeters on the pallet axes: x runs along the
pallet width, y along the depth, z upward. Units are axis-aligned boxes and
the only permitted rotation is 90 degrees about z.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, slots=True)
class Dims:
    """Box extents (w, d, h) along x, y, z. All positive."""

    w: int
    d: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.d <= 0 or self.h <= 0:
            raise ValueError(f"dimensions must be positive, got {(self.w, self.d, self.h)}")


def volume(dims: Dims) -> int:
    """Volume of a box in cubic millimeters."""
    return dims.w * dims.d * dims.h


@dataclass(frozen=True, slots=True)
class TransportUnit:
    """One item of the picking sequence.

    ``order_index`` is the unit's 0-based position in that sequence; the
    solver may skip units but never places them out of order.
    """

    id: str
    dims: Dims
    order_index: int

    def __post_init__(self):
        if self.order_index < 0:
            raise ValueError(f"order_index must be >= 0, got {self.order_index}")


def oriented(unit: TransportUnit, rotated: bool) -> Dims:
    """Effective extents of a unit, optionally rotated 90 degrees about z."""
    d = unit.dims
    return Dims(d.d, d.w, d.h) if rotated else d


@dataclass(frozen=True, slots=True)
class Pallet:
    """Loading area: width along x, depth along y, max_height along z."""

    width: int
    depth: int
    max_height: int

    def __post_init__(self):
        if self.width <= 0 or self.depth <= 0 or self.max_height <= 0:
            raise ValueError("pallet extents must be positive")

    def volume(self) -> int:
        return self.width * self.depth * self.max_height


@dataclass(frozen=True, slots=True)
class Placement:
    """A unit fixed on the pallet: position of its min corner plus its
    oriented extents. ``rotated`` records whether the 90-degree rotation
    was applied to the unit's declared dims."""

    unit_id: str
    position: tuple[int, int, int]
    oriented_dims: Dims
    rotated: bool

    def __post_init__(self):
        if any(c < 0 for c in self.position):
            raise ValueError(f"position must be nonnegative, got {self.position}")

    @property
    def x(self) -> int:
        return self.position[0]

    @property
    def y(self) -> int:
        return self.position[1]

    @property
    def z(self) -> int:
        return self.position[2]

    @property
    def x2(self) -> int:
        return self.position[0] + self.oriented_dims.w

    @property
    def y2(self) -> int:
        return self.position[1] + self.oriented_dims.d

    @property
    def z2(self) -> int:
        return self.position[2] + self.oriented_dims.h


def boxes_overlap(a: Placement, b: Placement) -> bool:
    """True iff the two closed boxes share positive volume (face contact
    does not count)."""
    return (
        a.x < b.x2 and b.x < a.x2
        and a.y < b.y2 and b.y < a.y2
        and a.z < b.z2 and b.z < a.z2
    )


@dataclass(frozen=True)
class PackingState:
    """Placements currently on the pallet, in loading order.

    Construction validates the geometric invariants: each box lies inside
    the pallet volume and overlaps none of the boxes before it.
    """

    placements: tuple[Placement, ...]
    pallet: Pallet

    def __post_init__(self):
        placements = tuple(self.placements)
        object.__setattr__(self, "placements", placements)
        for i, pl in enumerate(placements):
            self._check_fit(pl, placements[:i])

    def _check_fit(self, pl: Placement, before: tuple[Placement, ...]) -> None:
        p = self.pallet
        if pl.x2 > p.width or pl.y2 > p.depth or pl.z2 > p.max_height:
            raise ValueError(f"placement {pl.unit_id} exceeds pallet bounds")
        for other in before:
            if boxes_overlap(other, pl):
                raise ValueError(f"placements {other.unit_id} and {pl.unit_id} overlap")

    @staticmethod
    def empty(pallet: Pallet) -> "PackingState":
        return PackingState((), pallet)

    def with_placement(self, placement: Placement) -> "PackingState":
        """This state plus ``placement``, checked against this state's boxes
        only: they were checked when this state was built."""
        self._check_fit(placement, self.placements)
        child = object.__new__(PackingState)
        object.__setattr__(child, "placements", self.placements + (placement,))
        object.__setattr__(child, "pallet", self.pallet)
        return child

    def placed_volume(self) -> int:
        return sum(volume(pl.oriented_dims) for pl in self.placements)


BOUND_MODES = ("exact_knapsack", "lp_relaxation")


@dataclass(frozen=True)
class SolverParams:
    """Search and stability parameters.

    Support minimums are fractions in [0, 1] compared inclusively.
    ``gap_tolerance`` is the permissible distance in mm between supporting
    and supported surfaces (deformability allowance). ``p_x``/``p_y``/``p_z``
    are the coplanarity tolerances used by the scoring step.
    ``max_nodes``, when set, stops the search after that many expanded
    nodes, as ``time_limit_ms`` stops it on the clock; unlike the clock, it
    stops every run of an instance at the same node.
    """

    vertical_support_min: float = 0.8
    horizontal_support_min_x: float = 0.0
    horizontal_support_min_y: float = 0.0
    gap_tolerance: int = 0
    p_x: int = 0
    p_y: int = 0
    p_z: int = 0
    max_branches: int = 4
    time_limit_ms: int = 300_000
    bound_mode: str = "exact_knapsack"
    max_nodes: Optional[int] = None

    def __post_init__(self):
        for name in ("vertical_support_min", "horizontal_support_min_x", "horizontal_support_min_y"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {reprlib.repr(v)}")
        for name in ("gap_tolerance", "p_x", "p_y", "p_z"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_branches < 1:
            raise ValueError("max_branches must be >= 1")
        if self.time_limit_ms <= 0:
            raise ValueError("time_limit_ms must be positive")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if self.bound_mode not in BOUND_MODES:
            raise ValueError(
                f"bound_mode must be one of {BOUND_MODES}, got {reprlib.repr(self.bound_mode)}"
            )


@dataclass(frozen=True)
class SearchStats:
    """Counters from one solver run."""

    nodes_expanded: int = 0
    nodes_pruned_by_bound: int = 0
    # (position, orientation) pairs scored for ranking: those that passed the
    # ceiling, the free rays and the support sum (the exact supported area),
    # before any fits() test.
    candidates_evaluated: int = 0
    elapsed_ms: int = 0
    timed_out: bool = False


@dataclass(frozen=True)
class Solution:
    """Best pallet configuration found, with run statistics."""

    placements: tuple[Placement, ...]
    placed_volume: int
    utilization: float
    stats: SearchStats
    pallet: Pallet
