"""Span recorder for the traced benchmark run, installed from outside the solver.

Each traced function is replaced by a wrapper under the module global (or
class attribute) that its caller looks up, e.g. ``search.check_placement``
or ``feasibility.vertical_support``. A wrapper records one span per call:
name, parent span, solve id, start and end in ``perf_counter_ns``. Spans
are kept in memory in one flat integer array and written out at the end.
Counts that ratios need (feasible results, overlap rejects, candidates,
knapsack items) are taken in the same wrappers, inside solves only.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

FIELDS = ("name", "parent", "solve", "start_ns", "end_ns")
_W = len(FIELDS)

SOLVE_SPAN = "search.solve"

# Traced functions on the solve path, in the order they are reported.
SOLVE_PATH = (
    "extreme_points.generate",
    "feasibility.check_placement",
    "feasibility.check_overlap_bounds",
    "feasibility.vertical_support",
    "feasibility.horizontal_support",
    "scoring.evaluate",
    "scoring.rank_and_cut",
    "bounds.node_upper_bound",
    "bounds.knapsack_upper_bound",
    "grid.unused_volume",
    "model.with_placement",
)
FILES = ("files.parse_instance", "files.solution_to_json", "files.validate_solution")

Count = Optional[Callable[[object, tuple], int]]


def _targets(pp: SimpleNamespace) -> list[tuple[object, str, str, Count]]:
    """(owner, attribute, span name, counter) for every traced function."""
    return [
        (pp.extreme_points, "generate", "extreme_points.generate",
         lambda result, args: len(result)),
        (pp.search, "check_placement", "feasibility.check_placement",
         lambda result, args: int(result.feasible)),
        (pp.feasibility, "check_overlap_bounds", "feasibility.check_overlap_bounds",
         lambda result, args: int(not result)),
        (pp.feasibility, "vertical_support", "feasibility.vertical_support", None),
        (pp.feasibility, "horizontal_support", "feasibility.horizontal_support", None),
        (pp.search, "evaluate", "scoring.evaluate", None),
        (pp.search, "rank_and_cut", "scoring.rank_and_cut", None),
        (pp.search, "node_upper_bound", "bounds.node_upper_bound", None),
        (pp.bounds, "knapsack_upper_bound", "bounds.knapsack_upper_bound",
         lambda result, args: len(args[0].remaining_volumes)),
        (pp.bounds, "unused_volume", "grid.unused_volume", None),
        (pp.model.PackingState, "with_placement", "model.with_placement", None),
        (pp.files, "parse_instance", "files.parse_instance", None),
        (pp.files, "solution_to_json", "files.solution_to_json", None),
        (pp.files, "validate_solution", "files.validate_solution", None),
    ]


class Tracer:
    """Records spans for the functions it patches until :meth:`uninstall`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.rows = array("q")
        self._stack = [-1]
        self.solve_id = -1
        # Per span name, the sum of its counter over calls inside solves.
        self.counts: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []
        # Span names whose function the solver no longer has; they report 0 calls.
        self.missing: list[str] = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        rows = self.rows
        base = len(rows)
        rows.extend((code, self._stack[-1], self.solve_id, 0, 0))
        self._stack.append(base // _W)
        rows[base + 3] = time.perf_counter_ns()
        return base

    def _close(self, base: int) -> None:
        self.rows[base + 4] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Count = None) -> Callable:
        code = self._code(name)
        tracer = self

        def traced(*args, **kwargs):
            base = tracer._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(base)
            if count is not None and tracer.solve_id >= 0:
                tracer.counts[name] += count(result, args)
            return result

        return traced

    def run_solve(self, solve_id: int, fn: Callable, *args):
        """Call ``fn(*args)`` as the root span of solve ``solve_id``."""
        self.solve_id = solve_id
        base = self._open(self._code(SOLVE_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(base)
            self.solve_id = -1

    def install(self, pp: SimpleNamespace) -> None:
        for owner, attr, name, count in _targets(pp):
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            setattr(owner, attr, self.wrap(name, original, count))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive and self nanoseconds.

        Spans inside a solve are keyed by name; spans outside any solve
        (the files layer, and the feasibility calls made while replaying
        solutions) are keyed as ``"<name>@outside"``. Self time is a span's
        duration minus the durations of its direct children.
        """
        rows = self.rows
        n = len(rows) // _W
        child_ns = [0] * n
        for s in range(n):
            parent = rows[s * _W + 1]
            if parent >= 0:
                child_ns[parent] += rows[s * _W + 4] - rows[s * _W + 3]
        out: dict[str, dict[str, int]] = {}
        for s in range(n):
            b = s * _W
            name = self.names[rows[b]]
            if rows[b + 2] < 0:
                name += "@outside"
            dur = rows[b + 4] - rows[b + 3]
            t = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            t["calls"] += 1
            t["incl_ns"] += dur
            t["self_ns"] += dur - child_ns[s]
        return out

    def write(self, path: Path) -> None:
        """Spans as native 8-byte integers, ``FIELDS`` per span, plus a
        JSON sidecar that names the fields and the span names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            self.rows.tofile(f)
        sidecar = {"fields": FIELDS, "itemsize": self.rows.itemsize, "names": self.names,
                   "spans": len(self.rows) // _W}
        path.with_name(path.name + ".json").write_text(json.dumps(sidecar, indent=1) + "\n")


def layer_metrics(totals: dict[str, dict[str, int]], counts: Counter, nodes: int,
                  prunes: int, time_scale: float) -> dict[str, float]:
    """Per-layer metrics from :meth:`Tracer.totals` over one traced pass.

    ``us_per_call`` is inclusive (what a caller pays) and multiplied by
    ``time_scale`` (wall to reference time, see speed.py); ``share`` is self
    time over total solve time; ``calls_per_node`` divides by the nodes the
    search expanded.
    """
    zero = {"calls": 0, "incl_ns": 0, "self_ns": 0}
    solve = totals.get(SOLVE_SPAN, zero)
    solve_ns = max(solve["incl_ns"], 1)
    nodes = max(nodes, 1)
    m: dict[str, float] = {}

    def per_call(t: dict[str, int]) -> float:
        return time_scale * t["incl_ns"] / 1000 / t["calls"] if t["calls"] else 0.0

    for name in SOLVE_PATH:
        t = totals.get(name, zero)
        m[f"{name}.calls_per_node"] = t["calls"] / nodes
        m[f"{name}.us_per_call"] = per_call(t)
        m[f"{name}.share"] = t["self_ns"] / solve_ns
    m["search.share"] = solve["self_ns"] / solve_ns
    m["search.us_per_node"] = time_scale * solve["self_ns"] / 1000 / nodes
    for layer in ("feasibility", "scoring", "bounds"):
        m[f"{layer}.share"] = sum(
            totals.get(name, zero)["self_ns"] for name in SOLVE_PATH
            if name.startswith(layer + ".")
        ) / solve_ns
    for name in FILES:
        m[f"{name}.us_per_call"] = per_call(totals.get(name + "@outside", zero))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    checks = totals.get("feasibility.check_placement", zero)["calls"]
    m["feasibility.feasible_ratio"] = ratio(counts["feasibility.check_placement"], checks)
    m["feasibility.overlap_reject_ratio"] = ratio(
        counts["feasibility.check_overlap_bounds"], checks)
    m["extreme_points.candidates_per_call"] = ratio(
        counts["extreme_points.generate"], totals.get("extreme_points.generate", zero)["calls"])
    m["bounds.prune_ratio"] = ratio(
        prunes, totals.get("bounds.node_upper_bound", zero)["calls"])
    m["bounds.knapsack_items_per_call"] = ratio(
        counts["bounds.knapsack_upper_bound"],
        totals.get("bounds.knapsack_upper_bound", zero)["calls"])
    return m
