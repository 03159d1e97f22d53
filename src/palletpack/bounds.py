"""Volume bounds for pruning.

The upper bound on what a partial configuration can still reach is the
loaded volume plus the best 0-1 selection of the remaining units' volumes
that fits into the unused pallet volume. Value equals weight here, so the
LP relaxation of that knapsack has the closed form min(sum, capacity); the
exact optimum is found by depth-first branch and bound using that
relaxation as its own pruning bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .grid import unused_volume
from .model import PackingState, TransportUnit, volume


@dataclass(frozen=True)
class BoundContext:
    """Inputs of one bound computation: volumes of the still-eligible
    units, the unused pallet volume as capacity, and the volume already
    loaded."""

    remaining_volumes: tuple[int, ...]
    capacity: int
    loaded_volume: int

    def __post_init__(self):
        if any(v <= 0 for v in self.remaining_volumes):
            raise ValueError("remaining volumes must be positive")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")


# Above this many items the subset-sum search is work-capped and may fall
# back to the relaxation value; at or below it the result is always exact.
EXACT_ITEM_LIMIT = 15
_WORK_CAP = 40_000


def _subset_sum_max(volumes: Sequence[int], capacity: int) -> int:
    """Largest subset sum not exceeding capacity (the exact knapsack
    optimum when value equals weight).

    Exact for up to EXACT_ITEM_LIMIT items. Beyond that a node cap keeps
    pathological inputs from stalling the solver; if it trips, the
    relaxation optimum is returned instead, which is still a valid upper
    bound.
    """
    vols = sorted((v for v in volumes if v <= capacity), reverse=True)
    total = sum(vols)
    if total <= capacity:
        return total

    n = len(vols)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vols[i]

    # Greedy fill seeds the incumbent so the relaxation bound bites early.
    cur = 0
    for v in vols:
        if cur + v <= capacity:
            cur += v
    best = cur
    budget = _WORK_CAP if n > EXACT_ITEM_LIMIT else -1

    # Depth-first, include before exclude. Each visited node is (i, cur):
    # item i is next, cur is loaded. ``pending`` holds the exclude branches
    # whose include branch is still being explored.
    pending: list[tuple[int, int]] = []
    i = cur = 0
    while True:
        if cur > best:
            best = cur
        if budget > 0:
            budget -= 1
            if budget == 0:
                return min(total, capacity)
        if i == n or best == capacity or min(cur + suffix[i], capacity) <= best:
            if not pending or best == capacity:
                return best
            i, cur = pending.pop()
        elif cur + vols[i] <= capacity:
            pending.append((i + 1, cur))
            cur += vols[i]
            i += 1
        else:
            i += 1


def knapsack_upper_bound(ctx: BoundContext, mode: str = "exact_knapsack") -> int:
    """Best additional volume obtainable from the remaining units within
    the capacity, per the selected bound mode."""
    if mode == "exact_knapsack":
        return _subset_sum_max(ctx.remaining_volumes, ctx.capacity)
    if mode == "lp_relaxation":
        return min(sum(ctx.remaining_volumes), ctx.capacity)
    raise ValueError(f"unknown bound mode {mode!r}")


def lower_bound(state: PackingState) -> int:
    """Volume occupied by the loaded units."""
    return state.placed_volume()


def node_upper_bound(
    state: PackingState, remaining: Sequence[TransportUnit], mode: str = "exact_knapsack"
) -> int:
    """Upper bound for any completion of ``state`` using ``remaining``."""
    loaded = lower_bound(state)
    vols = tuple(volume(u.dims) for u in remaining)
    if not vols:
        return loaded
    ctx = BoundContext(vols, unused_volume(state), loaded)
    return loaded + knapsack_upper_bound(ctx, mode)
