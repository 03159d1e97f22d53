"""Self-tests of the benchmark: repeatable counts, tracing that changes no
output, and metric names the benchmark contract accepts.

Run from the repository root: python -m pytest perfbench/tests
"""

import json
import re
from pathlib import Path

import run
import spans
from workloads import WORKLOADS

BENCHMARK_JSON = Path(run.HERE).parent / "BENCHMARK.json"
EXACT = WORKLOADS["exact-small"]


def test_exact_small_counts_repeat_exactly():
    first = run.traced_run(EXACT, seed=5, seconds=2)
    second = run.traced_run(EXACT, seed=5, seconds=2)
    assert first.correct and second.correct
    assert first.detail["search_stats"] == second.detail["search_stats"]
    assert first.detail["calls"] == second.detail["calls"]
    names = [name for name, _, _ in run.PER_LAYER]
    counts = [n for n in names if n.startswith("search.") and n.split(".")[-1] not in
              ("share", "us_per_node")]
    for name in counts + [n for n in names if n.endswith("calls_per_node")]:
        assert first.metrics[name] == second.metrics[name], name


def test_wrapping_the_layers_changes_no_solution_bytes():
    setup = run.set_up(EXACT, seed=7, seconds=1)
    pp = setup.pp
    picked = list(zip(setup.texts, setup.instances))[:4]

    def solution_bytes(solve):
        out = []
        for text, inst in picked:
            sol = solve(inst)
            sf = pp.files.build_solution_file(sol, inst.params, text)
            out.append(pp.files.solution_to_json(sf))
        return out

    plain = solution_bytes(lambda inst: pp.search.solve(inst.units, inst.pallet, inst.params))
    tracer = spans.Tracer()
    tracer.install(pp)
    try:
        traced = solution_bytes(lambda inst: tracer.run_solve(
            0, pp.search.solve_with_trace, inst.units, inst.pallet, inst.params)[0])
    finally:
        tracer.uninstall()
    assert plain == traced
    assert len(tracer.rows) > 0


def test_benchmark_json_metric_names():
    doc = json.loads(BENCHMARK_JSON.read_text())
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    for name in names:
        assert name_re.fullmatch(name), name
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
