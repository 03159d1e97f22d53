"""Pallet loading under a fixed picking order: deterministic branch and
bound with extreme-point candidates, stability constraints, and a knapsack
upper bound."""

from .files import (
    InstanceFormatError,
    build_solution_file,
    parse_instance,
    parse_solution,
    solution_to_json,
    validate_solution,
)
from .model import Dims, Pallet, Placement, SearchStats, Solution, SolverParams, TransportUnit
from .search import TraceEvent, solve, solve_with_trace

__all__ = [
    "Dims",
    "InstanceFormatError",
    "Pallet",
    "Placement",
    "SearchStats",
    "Solution",
    "SolverParams",
    "TraceEvent",
    "TransportUnit",
    "build_solution_file",
    "parse_instance",
    "parse_solution",
    "solution_to_json",
    "solve",
    "solve_with_trace",
    "validate_solution",
]
