"""Pallet loading under a fixed picking order: deterministic branch and
bound with extreme-point candidates, stability constraints, and a knapsack
upper bound."""

from .bounds import BoundContext, knapsack_upper_bound, node_upper_bound
from .extreme_points import CandidatePosition, generate
from .feasibility import (
    SupportReport,
    check_overlap_bounds,
    check_placement,
    horizontal_support,
    rect_union_area,
    vertical_support,
)
from .grid import GridAxes, build_axes, unused_volume
from .model import (
    Dims,
    PackingState,
    Pallet,
    Placement,
    SearchStats,
    Solution,
    SolverParams,
    TransportUnit,
    oriented,
    volume,
)
from .scoring import ScoredCandidate, coplanar_sets, evaluate, rank_and_cut, scored_candidates
from .search import TraceEvent, solve, solve_with_trace

__all__ = [
    "BoundContext",
    "CandidatePosition",
    "Dims",
    "GridAxes",
    "PackingState",
    "Pallet",
    "Placement",
    "ScoredCandidate",
    "SearchStats",
    "Solution",
    "SolverParams",
    "SupportReport",
    "TraceEvent",
    "TransportUnit",
    "build_axes",
    "check_overlap_bounds",
    "check_placement",
    "coplanar_sets",
    "evaluate",
    "generate",
    "horizontal_support",
    "knapsack_upper_bound",
    "node_upper_bound",
    "oriented",
    "rank_and_cut",
    "rect_union_area",
    "scored_candidates",
    "solve",
    "solve_with_trace",
    "unused_volume",
    "vertical_support",
    "volume",
]
