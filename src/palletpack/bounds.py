"""Volume bounds for pruning.

The upper bound on what a partial configuration can still reach is the
loaded volume plus the best 0-1 selection of the remaining units' volumes
that fits into the unused pallet volume. Value equals weight here, so the
LP relaxation of that knapsack has the closed form min(sum, capacity); the
exact optimum is found by depth-first branch and bound using that
relaxation as its own pruning bound.
"""

from __future__ import annotations

from typing import Sequence

from .grid import unused_volume
from .model import PackingState, TransportUnit, volume

# Above this many items the subset-sum search is work-capped and may fall
# back to the relaxation value; at or below it the result is always exact.
EXACT_ITEM_LIMIT = 15
_WORK_CAP = 40_000


def subset_sum_max(volumes: Sequence[int], capacity: int) -> int:
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
    best = 0
    for v in vols:
        if best + v <= capacity:
            best += v
    if best == capacity:
        return best
    # One step per visited node; in exact mode the countdown starts below
    # zero and never reaches it.
    budget = _WORK_CAP if n > EXACT_ITEM_LIMIT else -1

    # Depth-first, include before exclude. Each visited node is (i, cur):
    # item i is next, cur is loaded. ``pending`` holds the exclude branches
    # whose include branch is still being explored. Past this point
    # best < capacity, so the relaxation bound min(cur + suffix[i], capacity)
    # beats best exactly when cur + suffix[i] does, and only an include can
    # raise best.
    pending: list[tuple[int, int]] = []
    push, pop = pending.append, pending.pop
    i = cur = 0
    while True:
        budget -= 1
        if budget == 0:
            return capacity  # the relaxation value: total > capacity here
        if cur + suffix[i] <= best:
            if not pending:
                return best
            i, cur = pop()
            continue
        v = vols[i]
        i += 1
        if cur + v <= capacity:
            push((i, cur))
            cur += v
            if cur > best:
                if cur == capacity:
                    return cur
                best = cur


def node_upper_bound(
    state: PackingState, remaining: Sequence[TransportUnit], mode: str = "exact_knapsack"
) -> int:
    """Upper bound for any completion of ``state`` using ``remaining``."""
    vols = [volume(u.dims) for u in remaining]
    capacity = unused_volume(state)
    if mode == "lp_relaxation":
        return state.placed_volume() + min(sum(vols), capacity)
    return state.placed_volume() + subset_sum_max(vols, capacity)
