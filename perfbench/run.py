#!/usr/bin/env python3
"""Closed-loop benchmark of the palletpack solver.

Run from the repository root:

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 35 --trace 0

One client in one thread solves generated instances one after another; the
next instance is sent only after the previous solve returns. Instances are
generated from ``--seed`` (see workloads.py) and reach the solver as JSON
text through ``files.parse_instance``. The solver is imported from ``src/``
next to this directory; the library code is never modified.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` is a separate run: a fixed number of instances is solved once
untraced and once with every layer wrapped (spans.py), and the per-layer
metrics come from the spans. Both runs replay every solution through the
correctness gate: serialize, parse back, ``files.validate_solution``.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (machine info, raw samples, failure reasons, a digest of every
solution) are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# (name, unit) of the end-to-end metrics, printed and emitted with --trace 0.
E2E_METRICS = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solve_s_tail", "s"),
    ("nodes_per_s", "1/s"),
    ("utilization", "fraction"),
    ("peak_rss_mb", "MB"),
)

SETUP_REPEATS = 5
# Speed-kernel runs before and after each set-up.
SETUP_KERNEL_REPS = 20
# Complete searches re-solved after the timed loop to check byte identity.
IDENTITY_RESOLVES = 20
# A budgeted solve fails when its wall time exceeds this multiple of its
# budget (acceptance criterion 8's rule).
BUDGET_SLACK = 1.5
# The timed loop stops here even when min_solves is not reached yet, so a
# run ends well within its 180 s limit.
HARD_CAP_S = 120.0

MODULES = ("files", "search", "feasibility", "extreme_points", "scoring", "bounds", "grid",
           "model")


def _layer_metric(name: str) -> tuple[str, str, str]:
    """(name, unit, better) of one per-layer metric."""
    for suffix, unit, better in (
        (".calls_per_node", "calls/node", "lower"), (".us_per_call", "us", "lower"),
        (".us_per_node", "us", "lower"), (".share", "fraction", "lower"),
        ("_per_call", "count/call", "lower"), ("feasible_ratio", "ratio", "higher"),
        ("prune_ratio", "ratio", "higher"), ("_ratio", "ratio", "lower"),
        (".overhead", "ratio", "lower"),
    ):
        if name.endswith(suffix):
            return name, unit, better
    higher = ("search.nodes_expanded", "search.nodes_pruned", "search.max_depth")
    return name, "count", "higher" if name in higher else "lower"


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    names = []
    for fn in spans.SOLVE_PATH:
        names += [f"{fn}.calls_per_node", f"{fn}.us_per_call", f"{fn}.share"]
    names += ["search.share", "search.us_per_node", "feasibility.share", "scoring.share",
              "bounds.share"]
    names += [f"{fn}.us_per_call" for fn in spans.FILES]
    names += ["feasibility.feasible_ratio", "feasibility.overlap_reject_ratio",
              "extreme_points.candidates_per_call", "bounds.prune_ratio",
              "bounds.knapsack_items_per_call"]
    names += ["search.nodes_expanded", "search.nodes_pruned", "search.skips",
              "search.max_depth", "search.last_incumbent_node",
              "search.below_envelope_placements", "trace.overhead"]
    return tuple(_layer_metric(n) for n in names)


# (name, unit, better) of every metric a traced run emits, in output order.
PER_LAYER = _per_layer()


def machine_info() -> dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def import_palletpack() -> SimpleNamespace:
    """A fresh import of the solver from ``src/``, so set-up time includes it."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "palletpack" or m.startswith("palletpack.")]:
        del sys.modules[name]
    pp = SimpleNamespace(**{m: importlib.import_module(f"palletpack.{m}") for m in MODULES})
    where = Path(pp.files.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"palletpack was imported from {where}, not from {SRC}")
    return pp


@dataclass
class Setup:
    pp: SimpleNamespace
    texts: list[str]
    instances: list[Any]
    times: list[float]  # wall seconds of each set-up
    ref_times: list[float]  # the same in reference seconds (speed.py)


def set_up(wl: Workload, seed: int, seconds: float) -> Setup:
    """Import, generate and parse; repeated, and the median is setup_s."""
    count = wl.instance_count(seconds)
    log = speed.SpeedLog()
    log.measure(SETUP_KERNEL_REPS)
    spans_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pp = import_palletpack()
        texts = wl.instance_texts(seed, count)
        instances = [pp.files.parse_instance(t) for t in texts]
        t1 = time.perf_counter()
        spans_s.append((t0, t1))
        log.measure(SETUP_KERNEL_REPS)
    times = [t1 - t0 for t0, t1 in spans_s]
    ref = [(t1 - t0) * log.factor(t0, t1) for t0, t1 in spans_s]
    return Setup(pp, texts, instances, times, ref)


@dataclass
class Solve:
    """What the benchmark keeps of one solve. The solution itself is checked
    right after the solve and then dropped, so memory does not grow with the
    number of solves a run fits in."""

    index: int  # into the workload's instance list
    seconds: float = 0.0  # wall
    ref_seconds: float = 0.0  # reference seconds (speed.py)
    nodes: int = 0
    utilization: float = 0.0
    digest: Optional[str] = None
    error: Optional[str] = None


def closed_loop(call: Callable[[int, Any], Any], instances: list,
                check: Callable[[Solve, Any], None], *, seconds: float = 0.0,
                min_solves: int = 1, limit: Optional[int] = None) -> list[Solve]:
    """Solve instances in order, cycling, one at a time.

    With ``limit`` exactly that many solves are made; otherwise the loop
    runs until ``seconds`` have passed and ``min_solves`` are done.
    ``check(record, result)`` gets what ``call`` returned (None if it
    raised). The speed kernel and the check run between solves, outside the
    timed region.
    """
    records = []
    intervals = []
    log = speed.SpeedLog()
    log.measure(1)
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(instances)
        rec = Solve(k)
        result = None
        t0 = time.perf_counter()
        try:
            result = call(k, instances[k])
        except Exception as exc:  # a crashing solve is a failed solve, not a crashed run
            t1 = time.perf_counter()
            rec.error = f"{type(exc).__name__}: {exc}"
        else:
            t1 = time.perf_counter()
        rec.seconds = t1 - t0
        intervals.append((t0, t1))
        records.append(rec)
        log.measure(speed.reps_after(rec.seconds))
        check(rec, result)
        del result
        i += 1
        if limit is not None:
            if i >= limit:
                break
            continue
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= min_solves) or elapsed >= HARD_CAP_S:
            break
    for rec, (t0, t1) in zip(records, intervals):
        rec.ref_seconds = rec.seconds * log.factor(t0, t1)
    return records


def below_envelope(placements) -> int:
    """Placements whose z lies below the top of an earlier placement whose
    footprint overlaps theirs (units put under an overhang)."""
    count = 0
    for k, p in enumerate(placements):
        for q in placements[:k]:
            if p.x < q.x2 and q.x < p.x2 and p.y < q.y2 and q.y < p.y2 and p.z < q.z2:
                count += 1
                break
    return count


# Failure reasons that say an output was wrong. The remaining one,
# over_budget, is a solve that missed its deadline with a valid output.
WRONG_OUTPUT = ("exception", "violation", "timed_out", "bytes_differ")


@dataclass
class Gate:
    """Correctness gate: every solution is serialized, parsed back and
    replayed through ``files.validate_solution``."""

    pp: SimpleNamespace
    wl: Workload
    texts: list[str]
    instances: list[Any]
    attempted: int = 0
    failed: int = 0  # solves with at least one reason in ``failures``
    failures: Counter = field(default_factory=Counter)
    first_digest: dict[int, str] = field(default_factory=dict)
    below_envelope: int = 0
    examples: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not any(self.failures[r] for r in WRONG_OUTPUT)

    def check(self, rec: Solve, sol: Any) -> None:
        """Counts one attempted solve and fills in its record."""
        self.attempted += 1
        if rec.error is not None:
            self._record(rec, [("exception", rec.error)])
            return
        rec.nodes = sol.stats.nodes_expanded
        rec.utilization = sol.utilization
        files = self.pp.files
        text, inst = self.texts[rec.index], self.instances[rec.index]
        doc = files.solution_to_json(files.build_solution_file(sol, inst.params, text))
        back = files.parse_solution(doc)
        violations = files.validate_solution(back, inst, text)
        if files.solution_to_json(back) != doc:
            violations.append("solution does not survive a serialize/parse round trip")
        rec.digest = "sha256:" + hashlib.sha256(doc.encode()).hexdigest()
        reasons = [("violation", v) for v in violations[:1]]
        if self.wl.budget_s is None:
            if sol.stats.timed_out:
                reasons.append(("timed_out", ""))
            if self.first_digest.setdefault(rec.index, rec.digest) != rec.digest:
                reasons.append(("bytes_differ", ""))
        elif rec.seconds > BUDGET_SLACK * inst.params.time_limit_ms / 1000:
            reasons.append(("over_budget", f"{rec.seconds:.3f} s"))
        if reasons:
            self._record(rec, reasons)
        else:
            self.below_envelope += below_envelope(sol.placements)

    def _record(self, rec: Solve, reasons: list[tuple[str, str]]) -> None:
        self.failed += 1
        for reason, detail in reasons:
            self.failures[reason] += 1
            if len(self.examples) < 5:
                self.examples.append(f"instance {rec.index}: {reason} {detail}".strip())


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def warm_up(pp: SimpleNamespace, setup: Setup) -> None:
    """One untimed solve, so first-call costs (lazy caches) are not timed.
    It uses the last instance, which the timed loop reaches last, if at all."""
    inst = setup.instances[-1]
    try:
        pp.search.solve(inst.units, inst.pallet, inst.params)
    except Exception:  # the timed loop counts the failure
        pass


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    lines: list[str]
    detail: dict[str, Any]


def _failure_line(gate: Gate) -> str:
    frac = gate.failed / gate.attempted if gate.attempted else 0.0
    reasons = ", ".join(f"{k} {v}" for k, v in sorted(gate.failures.items())) or "none"
    return f"  failed_frac   {gate.failed}/{gate.attempted} = {frac:.4f} (failures: {reasons})"


def _nodes_per_s(records: list[Solve]) -> float:
    """Nodes expanded over reference seconds of solving, pooled over the
    successful solves."""
    ok = [r for r in records if r.error is None]
    return sum(r.nodes for r in ok) / max(sum(r.ref_seconds for r in ok), 1e-9)


def timed_run(wl: Workload, seed: int, seconds: float) -> Result:
    setup = set_up(wl, seed, seconds)
    pp = setup.pp
    warm_up(pp, setup)
    solve = pp.search.solve
    gate = Gate(pp, wl, setup.texts, setup.instances)
    records = closed_loop(lambda k, inst: solve(inst.units, inst.pallet, inst.params),
                          setup.instances, gate.check, seconds=seconds,
                          min_solves=wl.min_solves)
    resolves: list[Solve] = []
    if wl.budget_s is None:
        resolves = closed_loop(lambda k, inst: solve(inst.units, inst.pallet, inst.params),
                               setup.instances, gate.check,
                               limit=min(IDENTITY_RESOLVES, len(setup.instances)))

    # Every metric is taken over the first min_solves solves, which every run
    # makes: for a given seed these are the same instances on every commit,
    # so a faster solver that fits more solves into the loop is not scored
    # on a different set of search trees. The loop's later solves only feed
    # the correctness gate.
    measured = records[:wl.min_solves]
    # A budgeted solve runs until its wall-clock deadline, so its time is
    # reported as wall time; a complete search is CPU work, reported in
    # reference seconds like every other CPU-bound time. solve_s is the mean,
    # the inverse of solves per second: on exact-small the time per instance
    # has a long flat stretch around its median, so the median moves with
    # the draw of instances far more than the mean does.
    clock = "wall" if wl.budget_s is not None else "ref"
    times = [r.seconds if clock == "wall" else r.ref_seconds for r in measured]
    # On exact-small utilization is deterministic per instance, so a pure
    # speed-up leaves it unchanged.
    fixed = [r for r in measured if r.error is None]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": statistics.median(setup.ref_times),
        "solve_s": statistics.mean(times),
        "solve_s_tail": percentile(times, wl.tail_pct),
        "nodes_per_s": _nodes_per_s(measured),
        "utilization": statistics.mean(r.utilization for r in fixed) if fixed else 0.0,
        "peak_rss_mb": rss_mb,
    }
    wall = [r.seconds for r in records]
    n = len(measured)
    beyond = sum(t > values["solve_s_tail"] for t in times)
    wall_nps = sum(r.nodes for r in measured) / max(sum(r.seconds for r in measured), 1e-9)
    lines = [
        f"workload {wl.name} seed {seed}: {len(records)} solves in {sum(wall):.1f} s of "
        f"solving (closed loop, 1 client), {len(setup.instances)} distinct instances "
        f"generated; metrics over instances 0..{n - 1}; 'ref' times are rescaled by the "
        f"speed kernel, 'wall' times are not",
        f"  setup_s       median {values['setup_s']:.4f} s ref, "
        f"{statistics.median(setup.times):.4f} s wall, n={SETUP_REPEATS} set-ups "
        f"(import, generate, parse_instance)",
        f"  solve_s       mean {values['solve_s']:.5f} s {clock}, median "
        f"{statistics.median(times):.5f} s, n={n}; wall mean {statistics.mean(wall):.5f} s",
        f"  solve_s_tail  p{wl.tail_pct} {values['solve_s_tail']:.5f} s {clock}, "
        f"{beyond} of {n} solves beyond it",
        f"  nodes_per_s   {values['nodes_per_s']:.1f} 1/s ref, pooled over {n} solves; "
        f"wall {wall_nps:.1f} 1/s",
        f"  utilization   mean {values['utilization']:.5f} fraction, n={len(fixed)}",
        f"  peak_rss_mb   {rss_mb:.1f} MB",
        _failure_line(gate),
        f"  search.below_envelope_placements {gate.below_envelope} "
        f"in {gate.attempted - gate.failed} valid solutions",
    ]
    if wl.budget_s is None:
        first = [r.digest or "" for r in measured]
        combined = hashlib.sha256("\n".join(first).encode()).hexdigest()
        lines.append(f"  solutions of instances 0..{wl.min_solves - 1}: sha256:{combined}")
    everything = records + resolves
    detail = {
        "tail_pct": wl.tail_pct,
        "samples": n,
        "solves": len(records),
        "failures": dict(gate.failures),
        "failure_examples": gate.examples,
        "below_envelope_placements": gate.below_envelope,
        "setup_wall_s": setup.times,
        "setup_ref_s": setup.ref_times,
        "solve_wall_s": wall,
        "solve_ref_s": [r.ref_seconds for r in records],
        "solve_nodes": [r.nodes for r in records],
        "solve_utilization": [r.utilization for r in records],
        "solution_digests": [[r.index, r.digest] for r in everything],
    }
    units = dict(E2E_METRICS)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return Result(gate.correct, gate.attempted, gate.failed, metrics, lines, detail)


def reproduces_roadmap(feasibility_share: float, generate_share: float) -> bool:
    """Whether traced shares match the ROADMAP baseline: check_placement
    (all of feasibility) about 50%, extreme_points.generate 20-30%."""
    return 0.4 <= feasibility_share <= 0.6 and 0.2 <= generate_share <= 0.3


def _last_incumbent_node(events: list) -> int:
    """Nodes expanded up to the one that produced the last incumbent."""
    expanded = last = 0
    for e in events:
        if e.kind == "expand":
            expanded += 1
        elif e.kind == "incumbent":
            last = expanded
    return last


@dataclass
class EventCounts:
    """Search counts taken from ``solve_with_trace`` events, solve by solve."""

    skips: int = 0
    pruned: int = 0
    max_depth: int = 0
    below_envelope: int = 0
    last_incumbent: list[int] = field(default_factory=list)
    stats: list[list[int]] = field(default_factory=list)

    def add(self, rec: Solve, sol: Any, events: list) -> None:
        self.skips += sum(e.kind == "skip" for e in events)
        self.pruned += sol.stats.nodes_pruned_by_bound
        self.max_depth = max([self.max_depth] + [e.depth for e in events if e.depth is not None])
        self.below_envelope += below_envelope(sol.placements)
        self.last_incumbent.append(_last_incumbent_node(events))
        self.stats.append([rec.index, sol.stats.nodes_expanded, sol.stats.nodes_pruned_by_bound,
                           sol.stats.candidates_evaluated])


def traced_run(wl: Workload, seed: int, seconds: float, spans_path: Optional[Path] = None
               ) -> Result:
    setup = set_up(wl, seed, seconds)
    pp = setup.pp
    warm_up(pp, setup)
    m = min(wl.trace_count(seconds), len(setup.instances))
    gate = Gate(pp, wl, setup.texts, setup.instances)
    plain = closed_loop(
        lambda k, inst: pp.search.solve(inst.units, inst.pallet, inst.params),
        setup.instances, gate.check, limit=m)
    counts = EventCounts()

    def check_traced(rec: Solve, result: Any) -> None:
        sol, events = result if result is not None else (None, None)
        gate.check(rec, sol)
        if rec.error is None:
            counts.add(rec, sol, events)

    tracer = spans.Tracer()
    tracer.install(pp)
    try:
        traced = closed_loop(
            lambda k, inst: tracer.run_solve(k, pp.search.solve_with_trace, inst.units,
                                             inst.pallet, inst.params),
            setup.instances, check_traced, limit=m)
        for text in setup.texts[:m]:
            pp.files.parse_instance(text)
    finally:
        tracer.uninstall()

    ok = [r for r in traced if r.error is None]
    nodes = sum(r.nodes for r in ok)
    totals = tracer.totals()
    scale = statistics.median(r.ref_seconds / r.seconds for r in traced) if traced else 1.0
    values = spans.layer_metrics(totals, tracer.counts, nodes, counts.pruned, scale)
    traced_nps = _nodes_per_s(traced)
    values.update({
        "search.nodes_expanded": nodes,
        "search.nodes_pruned": counts.pruned,
        "search.skips": counts.skips,
        "search.max_depth": counts.max_depth,
        "search.last_incumbent_node": (statistics.median(counts.last_incumbent)
                                       if counts.last_incumbent else 0),
        "search.below_envelope_placements": counts.below_envelope,
        "trace.overhead": _nodes_per_s(plain) / traced_nps if traced_nps else 0.0,
    })
    cp, gen = values["feasibility.share"], values["extreme_points.generate.share"]
    baseline = {
        "check_placement_share_incl": cp,
        "generate_share": gen,
        "roadmap": "check_placement 54%, generate 28% (criterion-8 instance, 40 units)",
        "reproduces": reproduces_roadmap(cp, gen),
    }
    if spans_path is not None:
        tracer.write(spans_path)
    n_spans = len(tracer.rows) // len(spans.FIELDS)
    lines = [
        f"workload {wl.name} seed {seed}: traced run, {m} instances solved untraced "
        f"then traced, {n_spans} spans",
        f"  shares of solve time: search {values['search.share']:.3f}, feasibility "
        f"{cp:.3f}, extreme_points.generate {gen:.3f}, scoring {values['scoring.share']:.3f}, "
        f"bounds {values['bounds.share']:.3f} (knapsack "
        f"{values['bounds.knapsack_upper_bound.share']:.3f}), grid "
        f"{values['grid.unused_volume.share']:.3f}, model "
        f"{values['model.with_placement.share']:.3f}",
        f"  ROADMAP baseline check_placement ~50%, generate 20-30%: here {cp:.1%} and "
        f"{gen:.1%}, reproduces: {'yes' if baseline['reproduces'] else 'no'}",
        f"  trace.overhead {values['trace.overhead']:.3f} (untraced over traced nodes/s)",
        _failure_line(gate),
    ]
    if tracer.missing:
        lines.append(f"  not found in the solver, so not traced: {', '.join(tracer.missing)}")
    detail = {
        "baseline_comparison": baseline,
        "failures": dict(gate.failures),
        "failure_examples": gate.examples,
        "calls": {k: v["calls"] for k, v in sorted(totals.items())},
        "not_traced": tracer.missing,
        "search_stats": counts.stats,
        "solution_digests": [[r.index, r.digest] for r in plain + traced],
        "spans_file": str(spans_path.relative_to(HERE.parent)) if spans_path else None,
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit, _ in PER_LAYER}
    return Result(gate.correct, gate.attempted, gate.failed, metrics, lines, detail)


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="palletpack closed-loop benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "palletpack" / "__init__.py").is_file():
        print(f"error: no solver sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    started = time.perf_counter()
    if args.trace:
        result = traced_run(wl, args.seed, args.seconds, OUT / f"{wl.name}.spans")
    else:
        result = timed_run(wl, args.seed, args.seconds)
    machine = machine_info()
    report = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    OUT.mkdir(parents=True, exist_ok=True)
    report.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": result.metrics, "detail": result.detail,
        "wall_s": time.perf_counter() - started,
    }, indent=1) + "\n")

    for line in result.lines:
        print(line)
    print(f"  machine: nproc {machine['nproc']}, Python {machine['python']}, "
          f"CPU {machine['cpu_model']}")
    print(f"  details: {report.relative_to(HERE.parent)}")
    if result.failed:
        print(f"CORRECTNESS GATE: {result.failed} failed solves on {wl.name}: "
              f"{result.detail['failure_examples']}", file=sys.stderr)
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
