"""Command-line front end.

    palletpack solve INSTANCE [options]
    palletpack validate SOLUTION INSTANCE

Exit codes: 0 success (a timed-out solve still exits 0 and records
timed_out in the output), 1 failed validation or failed --seed-check,
2 an input that cannot be read or parsed (not UTF-8 included), or an
output file that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .files import (
    InstanceFile,
    InstanceFormatError,
    build_solution_file,
    parse_instance,
    parse_solution,
    solution_to_json,
    validate_solution,
)
from .model import Solution, SolverParams
from .search import TraceEvent, solve
from .svg import render_svg

_BOUND_MODES = {"exact": "exact_knapsack", "lp": "lp_relaxation"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="palletpack")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance file")
    ps.add_argument("instance", type=Path)
    ps.add_argument("--out", type=Path, help="write the solution file here (default: stdout)")
    ps.add_argument("--svg", type=Path, help="render the configuration to this SVG file")
    ps.add_argument("--trace", type=Path, help="write search events here, one JSON per line")
    ps.add_argument("--time-limit-ms", type=int)
    ps.add_argument("--max-branches", type=int)
    ps.add_argument("--max-nodes", type=int, help="stop the search after this many expanded nodes")
    ps.add_argument("--bound-mode", choices=sorted(_BOUND_MODES))
    ps.add_argument("--vertical-support", type=float, help="minimum bottom-face support fraction")
    ps.add_argument("--horizontal-support-x", type=float)
    ps.add_argument("--horizontal-support-y", type=float)
    ps.add_argument("--gap", type=int, help="support gap tolerance in mm")
    ps.add_argument("--px", type=int, help="coplanarity tolerance on +x faces, mm")
    ps.add_argument("--py", type=int, help="coplanarity tolerance on +y faces, mm")
    ps.add_argument("--pz", type=int, help="coplanarity tolerance on unit tops, mm")
    ps.add_argument(
        "--seed-check", action="store_true",
        help="solve twice and fail unless both runs serialize identically",
    )

    pv = sub.add_parser("validate", help="re-check a solution against its instance")
    pv.add_argument("solution", type=Path)
    pv.add_argument("instance", type=Path)
    return parser


def _effective_params(file_params, args):
    overrides = {
        "time_limit_ms": args.time_limit_ms,
        "max_branches": args.max_branches,
        "max_nodes": args.max_nodes,
        "bound_mode": _BOUND_MODES[args.bound_mode] if args.bound_mode else None,
        "vertical_support_min": args.vertical_support,
        "horizontal_support_min_x": args.horizontal_support_x,
        "horizontal_support_min_y": args.horizontal_support_y,
        "gap_tolerance": args.gap,
        "p_x": args.px,
        "p_y": args.py,
        "p_z": args.pz,
    }
    changes = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(file_params, **changes) if changes else file_params


def _cmd_solve(args) -> int:
    try:
        text = args.instance.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.instance}: {exc}", file=sys.stderr)
        return 2
    try:
        instance = parse_instance(text)
        params = _effective_params(instance.params, args)
    except (InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        solution = _solve_traced(instance, params, args.trace)
        if solution is None:
            return 2
    else:
        solution = solve(instance.units, instance.pallet, params)

    payload = solution_to_json(build_solution_file(solution, params, text))

    if args.seed_check:
        rerun = solve(instance.units, instance.pallet, params)
        if solution_to_json(build_solution_file(rerun, params, text)) != payload:
            print("seed-check: FAILED, reruns differ", file=sys.stderr)
            return 1
        print("seed-check: ok, reruns identical", file=sys.stderr)

    if args.out:
        if not _write(args.out, [payload]):
            return 2
    else:
        sys.stdout.write(payload)
    if args.svg and not _write(args.svg, [render_svg(solution)]):
        return 2
    stats = solution.stats
    if stats.timed_out:
        limit = "node budget" if stats.nodes_expanded == params.max_nodes else "time limit"
        print(
            f"{limit} reached after {stats.elapsed_ms} ms; best configuration so far written",
            file=sys.stderr,
        )
    return 0


def _solve_traced(instance: InstanceFile, params: SolverParams, path: Path
                  ) -> Optional[Solution]:
    """Solve, writing each search event to ``path`` as one JSON line as it
    happens; if the file cannot be written, print one error line and
    return None."""
    try:
        with path.open("w", encoding="utf-8") as fh:
            def write(event: TraceEvent) -> None:
                fh.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")

            return solve(instance.units, instance.pallet, params, write)
    except OSError as exc:  # the solve does no I/O of its own
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return None


def _write(path: Path, chunks: Iterable[str]) -> bool:
    """Write ``chunks`` to ``path``; if that fails, print one error line
    and return False."""
    try:
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_validate(args) -> int:
    try:
        sol_text = args.solution.read_text(encoding="utf-8")
        inst_text = args.instance.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        sf = parse_solution(sol_text)
        instance = parse_instance(inst_text)
    except (InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = validate_solution(sf, instance, inst_text)
    if violations:
        for v in violations:
            print(f"INVALID: {v}")
        return 1
    print(f"valid: {len(sf.placements)} placements, utilization {sf.utilization:.4f}")
    return 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    return _cmd_validate(args)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
