"""Seeded instance generators for the benchmark workloads.

Every workload draws its instances from ``random.Random(f"{name}:{seed}")``,
so the same seed gives the same instance documents byte for byte. The
solver only ever sees the JSON text, which the benchmark passes through
``files.parse_instance`` like any other input file.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    pallet: tuple[int, int, int]  # width, depth, max_height
    units: int
    side: tuple[int, int]  # inclusive range of every unit side, in mm
    params: dict
    # Wall budget that the 1.5x rule checks; None for searches that must
    # run to completion.
    budget_s: Optional[float]
    # Tail percentile reported as solve_s_tail. It leaves at least ten
    # samples beyond it at ``min_solves`` solves; where the highest such one
    # moves with the draw of instances (p99 on exact-small spread 12-25%
    # between seeds), it is lower.
    tail_pct: int
    min_solves: int
    # Distinct instances generated per second of run length; the timed loop
    # cycles through them, so a solver faster than this repeats instances.
    instances_per_second: float
    # Instances solved (once untraced, once traced) per second of run length
    # in a traced run. Kept small: every layer call is one span in memory.
    trace_solves_per_second: float

    def instance_count(self, seconds: float) -> int:
        return max(self.min_solves, math.ceil(seconds * self.instances_per_second))

    def trace_count(self, seconds: float) -> int:
        return max(1, math.ceil(seconds * self.trace_solves_per_second))

    def instance_texts(self, seed: int, count: int) -> list[str]:
        """``count`` instance documents for ``seed``."""
        rng = random.Random(f"{self.name}:{seed}")
        lo, hi = self.side
        width, depth, max_height = self.pallet
        texts = []
        for _ in range(count):
            doc = {
                "pallet": {"width": width, "depth": depth, "max_height": max_height},
                "units": [
                    {
                        "id": f"u{i:03d}",
                        "w": rng.randint(lo, hi),
                        "d": rng.randint(lo, hi),
                        "h": rng.randint(lo, hi),
                    }
                    for i in range(self.units)
                ],
                "params": self.params,
            }
            texts.append(json.dumps(doc, sort_keys=True))
        return texts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-small",
            pallet=(1200, 800, 1500),
            units=6,
            side=(300, 700),
            # The time limit is only a safety net: a complete search takes
            # well under a second, and a timed-out solve counts as failed.
            params={"vertical_support_min": 0.7, "max_branches": 4, "time_limit_ms": 10_000},
            budget_s=None,
            tail_pct=95,
            min_solves=1500,
            instances_per_second=60.0,
            trace_solves_per_second=2.0,
        ),
        Workload(
            name="anytime-deep",
            pallet=(1200, 800, 1500),
            units=150,
            side=(50, 200),
            params={"vertical_support_min": 0.7, "gap_tolerance": 5, "time_limit_ms": 1000},
            budget_s=1.0,
            tail_pct=70,
            min_solves=35,
            instances_per_second=1.2,
            trace_solves_per_second=0.25,
        ),
        Workload(
            name="tight-bound",
            pallet=(400, 300, 400),
            units=40,
            side=(60, 200),
            params={
                "vertical_support_min": 1.0,
                "bound_mode": "exact_knapsack",
                "time_limit_ms": 500,
            },
            budget_s=0.5,
            tail_pct=85,
            min_solves=70,
            instances_per_second=2.4,
            trace_solves_per_second=0.5,
        ),
    )
}
