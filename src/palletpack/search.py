"""Depth-first branch and bound over (unit, position, orientation) choices.

Units are considered strictly in picking order. At each node the selected
unit's feasible candidates are ranked and capped; the best one greedily
extends the incumbent, then the node either descends into its candidate
children (best first) or, if the unit fits nowhere, is skipped so the
same state is retried with the next unit. A skipped unit stays skipped for
the rest of its branch. Exhausted branches backtrack; at the root the
first-placed unit itself advances through the picking order. The search is
fully deterministic; a wall-clock limit makes it an anytime solver, and a
node budget (``max_nodes``) stops it at the same node on every run.

The searcher owns one incremental state (``flatstate.FlatState``): a
descent pushes a box onto it and a backtrack pops it, so no node rebuilds
its candidates or re-checks its parent's placements. Branching nodes are
kept on an explicit stack, so the depth of the tree is not bounded by the
interpreter's recursion limit.

One rule bounds the search. Units are loaded from above, so no
descendant of a node for unit ``idx`` loads more than the state's volume
plus the knapsack bound: the best selection of the volumes from ``idx``
on that fits into the unused volume above the height envelope. A node
whose bound cannot beat the incumbent is closed before it opens; the
same test on the parent's state before each further sibling closes the
rest of a node, and on the empty pallet before each root ends the
search, since a later sibling or root has no more to place.
``_closed`` only asks whether the bound can beat the incumbent, so it
tries the cheapest answers first: the rest bound (every volume from
``idx`` on, the knapsack bound without its capacity), then first-fit
fills, each a feasible filling and so a lower bound on the knapsack
bound, and only then the bound itself. The state ranks and cuts a unit's
candidates itself (``FlatState.ranked``), and alone decides which of its
fast paths it takes: once per instance, from its units, not per depth.
"""

from __future__ import annotations

import math
import reprlib
import time
from dataclasses import asdict, dataclass
from itertools import accumulate, islice
from typing import Callable, Optional, Sequence

from .bounds import subset_sum_max
from .flatstate import FlatState
from .model import (
    Pallet,
    Placement,
    SearchStats,
    Solution,
    SolverParams,
    TransportUnit,
    oriented,
    volume,
)
from .scoring import Ranked


@dataclass(frozen=True)
class TraceEvent:
    """One step of the search, for debugging and replay."""

    kind: str  # expand | place | incumbent | prune | skip | backtrack
    unit_id: Optional[str] = None
    order_index: Optional[int] = None
    position: Optional[tuple[int, int, int]] = None
    rotated: Optional[bool] = None
    purpose: Optional[str] = None  # for place: incumbent | descend
    volume: Optional[int] = None
    upper_bound: Optional[int] = None
    incumbent_volume: Optional[int] = None
    candidates: Optional[int] = None
    depth: Optional[int] = None
    placements: Optional[tuple[tuple[str, tuple[int, int, int], bool], ...]] = None

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


class _Deadline(Exception):
    pass


def _validate_instance(units: Sequence[TransportUnit]) -> None:
    if not units:
        raise ValueError("instance has no transport units")
    seen = set()
    for i, u in enumerate(units):
        if u.id in seen:
            raise ValueError(f"duplicate unit id {reprlib.repr(u.id)}")
        seen.add(u.id)
        if u.order_index != i:
            raise ValueError(
                f"unit {reprlib.repr(u.id)} has order_index {u.order_index}, expected {i}"
            )


class _Searcher:
    def __init__(
        self,
        units: Sequence[TransportUnit],
        pallet: Pallet,
        params: SolverParams,
        on_event: Optional[Callable[[TraceEvent], None]] = None,
    ):
        _validate_instance(units)
        self.units = list(units)
        self.volumes = [volume(u.dims) for u in self.units]
        # rest[i]: the volume of units i.. together, with rest[n] = 0
        self.rest = list(accumulate(reversed(self.volumes), initial=0))[::-1]
        self.pallet = pallet
        self.params = params
        # Takes each event as it happens; without it, no event is built.
        self.on_event = on_event
        # From the units' dims, the state drops the points that no unit can
        # take and picks its fast paths: see FlatState.
        self.state = FlatState(pallet, params, [u.dims for u in units])
        # The state's boxes as (unit, position, rotated), and the placements
        # of a prefix of them, built only when an incumbent first holds them.
        self.placed: list[tuple[TransportUnit, tuple[int, int, int], bool]] = []
        self.built: list[Placement] = []
        self.incumbent: tuple[Placement, ...] = ()
        self.incumbent_volume = 0
        self.nodes_expanded = 0
        self.nodes_pruned = 0
        self.timed_out = False
        try:
            budget_s = params.time_limit_ms / 1000.0
        except OverflowError:  # a limit past float range never runs out
            budget_s = math.inf
        self.deadline = time.monotonic() + budget_s

    def _tick(self) -> None:
        if time.monotonic() >= self.deadline:
            raise _Deadline

    def _ranked_candidates(self, unit: TransportUnit) -> list[Ranked]:
        """Feasible (position, orientation) pairs for ``unit``, best first,
        cut to max_branches."""
        dims = unit.dims
        return self.state.ranked(dims.w, dims.d, dims.h, self.params.max_branches, self._tick)

    def _push(self, unit: TransportUnit, cand: Ranked) -> None:
        _, z, y, x, rotated = cand
        d = unit.dims
        if rotated:
            self.state.push(x, y, z, d.d, d.w, d.h)
        else:
            self.state.push(x, y, z, d.w, d.d, d.h)
        self.placed.append((unit, (x, y, z), rotated))

    def _pop(self) -> None:
        self.state.pop()
        self.placed.pop()
        if len(self.built) > len(self.placed):
            self.built.pop()

    def _take_incumbent(self) -> None:
        """Make the state's boxes the incumbent, building the placements
        that no earlier incumbent built."""
        built = self.built
        for unit, position, rotated in islice(self.placed, len(built), None):
            built.append(Placement(unit.id, position, oriented(unit, rotated), rotated))
        self.incumbent = tuple(built)
        self.incumbent_volume = self.state.volume

    def _closed(self, idx: int, depth: int) -> bool:
        """Whether a node for unit ``idx`` on the state cannot beat the
        incumbent: its bound is no more than the incumbent. The bound is
        the one the tests' ``reference.bounds.node_upper_bound`` computes
        from scratch. A closed node counts as pruned.

        Cheapest test first. Past the rest bound, a first-fit fill of the
        volumes from ``idx`` on that beats the incumbent keeps the node
        open: first into the pallet volume less ``columns``, never above
        the unused volume, then into the unused volume. A fill that
        skipped no unit would beat the incumbent, so when both fail the
        volumes sum past the capacity, the LP relaxation's value, and only
        then does the exact mode run the kernel."""
        state = self.state
        need = self.incumbent_volume - state.volume
        bound = self.rest[idx]
        if bound > need:
            if self._fill_beats(idx, self.pallet.volume() - state.columns, need):
                return False
            capacity = state.unused_volume()
            if self._fill_beats(idx, capacity, need):
                return False
            bound = (capacity if self.params.bound_mode == "lp_relaxation"
                     else subset_sum_max(self.volumes[idx:], capacity))
            self._tick()
            if bound > need:
                return False
        self.nodes_pruned += 1
        if self.on_event is not None:
            unit = self.units[idx]
            self.on_event(TraceEvent("prune", unit_id=unit.id, order_index=idx,
                                     upper_bound=state.volume + bound,
                                     incumbent_volume=self.incumbent_volume, depth=depth))
        return True

    def _fill_beats(self, first: int, capacity: int, need: int) -> bool:
        """Whether a first-fit fill of the volumes from ``first`` on into
        ``capacity`` loads more than ``need``."""
        fill = 0
        for v in islice(self.volumes, first, None):
            if fill + v <= capacity:
                fill += v
                if fill > need:
                    return True
        return False

    def _open(self, idx: int, depth: int, skippable: bool) -> Optional[list]:
        """Expand the node for unit ``idx``, skipping forward while units
        fit nowhere. Returns the frame ``[idx, depth, ranked, next child]``
        of a node that branches, with its best candidate left on the state,
        or None when the node is done: a leaf, pruned, or out of units."""
        n = len(self.units)
        emit = self.on_event
        while idx < n:
            # The bound only falls as idx grows, so the later units this
            # node would skip to on the same state are closed too.
            if self._closed(idx, depth):
                return None
            self._tick()
            unit = self.units[idx]
            ranked = self._ranked_candidates(unit)
            self.nodes_expanded += 1
            if emit is not None:
                emit(TraceEvent("expand", unit_id=unit.id, order_index=idx,
                                candidates=len(ranked), depth=depth))

            if ranked:
                best = ranked[0]
                self._push(unit, best)
                if self.state.volume > self.incumbent_volume:
                    self._take_incumbent()
                    if emit is not None:
                        emit(TraceEvent("place", unit_id=unit.id, order_index=idx,
                                        position=(best[3], best[2], best[1]), rotated=best[4],
                                        purpose="incumbent", depth=depth))
                        emit(TraceEvent("incumbent", volume=self.incumbent_volume,
                                        placements=tuple((u.id, position, rotated)
                                                         for u, position, rotated in self.placed)))

            # The node budget (never equal when unset) ends the search once
            # the node's best candidate has been offered to the incumbent,
            # before the node skips or branches.
            if self.nodes_expanded == self.params.max_nodes:
                raise _Deadline
            if not ranked:
                if not skippable:
                    return None
                if emit is not None:
                    emit(TraceEvent("skip", unit_id=unit.id, order_index=idx, depth=depth))
                idx += 1
                continue

            if idx + 1 < n:
                return [idx, depth, ranked, 0]
            self._pop()
            return None
        # picking order exhausted: natural leaf, caller backtracks
        return None

    def _search_from(self, root_idx: int) -> None:
        """Depth-first search of the tree whose first placed unit is
        ``root_idx``, on an explicit stack of branching nodes."""
        emit = self.on_event
        frames = []
        frame = self._open(root_idx, 0, skippable=False)
        if frame is not None:
            frames.append(frame)
        while frames:
            frame = frames[-1]
            idx, depth, ranked, k = frame
            if k > 0:  # child k-1 has returned
                if emit is not None:
                    emit(TraceEvent("backtrack", depth=depth))
                self._pop()
            if k == len(ranked):
                frames.pop()
                continue
            cand = ranked[k]
            unit = self.units[idx]
            if k > 0:  # the best candidate is already on the state
                # The bound on the parent state: if sibling k cannot win,
                # no later sibling can.
                if self._closed(idx, depth):
                    frames.pop()
                    continue
                self._push(unit, cand)
            frame[3] = k + 1
            if emit is not None:
                emit(TraceEvent("place", unit_id=unit.id, order_index=idx,
                                position=(cand[3], cand[2], cand[1]), rotated=cand[4],
                                purpose="descend", depth=depth))
            child = self._open(idx + 1, depth + 1, skippable=True)
            if child is not None:
                frames.append(child)

    def run(self) -> Solution:
        started = time.monotonic()
        try:
            for root_idx in range(len(self.units)):
                if self._closed(root_idx, 0):  # nor can any later root win
                    break
                self._search_from(root_idx)
        except _Deadline:
            self.timed_out = True
        elapsed_ms = int((time.monotonic() - started) * 1000)
        stats = SearchStats(
            nodes_expanded=self.nodes_expanded,
            nodes_pruned_by_bound=self.nodes_pruned,
            candidates_evaluated=self.state.pairs_scored,
            elapsed_ms=elapsed_ms,
            timed_out=self.timed_out,
        )
        return Solution(
            placements=self.incumbent,
            placed_volume=self.incumbent_volume,
            utilization=self.incumbent_volume / self.pallet.volume(),
            stats=stats,
            pallet=self.pallet,
        )


def solve(
    units: Sequence[TransportUnit],
    pallet: Pallet,
    params: SolverParams,
    on_event: Optional[Callable[[TraceEvent], None]] = None,
) -> Solution:
    """Best configuration found before the tree or the time limit runs out.
    ``on_event``, if given, is called with each search event as it happens;
    an exception it raises ends the solve and reaches the caller."""
    return _Searcher(units, pallet, params, on_event).run()


def solve_with_trace(
    units: Sequence[TransportUnit], pallet: Pallet, params: SolverParams
) -> tuple[Solution, list[TraceEvent]]:
    """Like :func:`solve`, also returning the ordered event log."""
    events: list[TraceEvent] = []
    return solve(units, pallet, params, events.append), events
