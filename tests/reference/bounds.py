"""Reference node bound: the loaded volume plus the knapsack bound of the
remaining units' volumes into the unused volume above the height envelope,
computed from scratch on a ``PackingState``."""

from __future__ import annotations

from typing import Sequence

from palletpack.bounds import subset_sum_max
from palletpack.grid import unused_volume
from palletpack.model import PackingState, TransportUnit, volume


def node_upper_bound(
    state: PackingState, remaining: Sequence[TransportUnit], mode: str = "exact_knapsack"
) -> int:
    """Upper bound for any completion of ``state`` using ``remaining``."""
    vols = [volume(u.dims) for u in remaining]
    capacity = unused_volume(state)
    if mode == "lp_relaxation":
        return state.placed_volume() + min(sum(vols), capacity)
    return state.placed_volume() + subset_sum_max(vols, capacity)
