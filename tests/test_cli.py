import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from palletpack import cli
from palletpack.cli import cli_main
from palletpack.files import build_solution_file, parse_instance, solution_to_json
from palletpack.search import solve, solve_with_trace

INSTANCE = {
    "pallet": {"width": 4, "depth": 3, "max_height": 10},
    "units": [{"id": "u0", "w": 2, "d": 2, "h": 1}],
    "params": {"vertical_support_min": 0.0},
}


@pytest.fixture
def instance_path(tmp_path):
    p = tmp_path / "instance.json"
    p.write_text(json.dumps(INSTANCE))
    return p


def test_solve_writes_solution(instance_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = cli_main(["solve", str(instance_path), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["placed_volume"] == 4
    assert doc["utilization"] == 4 / 120
    assert doc["placements"] == [{"id": "u0", "x": 0, "y": 0, "z": 0, "rotated": False}]
    assert doc["stats"]["timed_out"] is False
    assert "elapsed_ms" not in doc["stats"]


def test_solve_stdout_by_default(instance_path, capsys):
    assert cli_main(["solve", str(instance_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["placed_volume"] == 4


def test_validate_accepts_solver_output(instance_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(instance_path), "--out", str(out)]) == 0
    assert cli_main(["validate", str(out), str(instance_path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_rejects_tampered_solution(instance_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    cli_main(["solve", str(instance_path), "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["placements"][0]["x"] = 3  # pushes the unit over the edge
    out.write_text(json.dumps(doc))
    code = cli_main(["validate", str(out), str(instance_path)])
    assert code == 1
    assert "bounds" in capsys.readouterr().out


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli_main(["solve", str(bad)]) == 2
    missing_unit_dim = tmp_path / "bad2.json"
    missing_unit_dim.write_text(json.dumps({
        "pallet": {"width": 4, "depth": 3, "max_height": 10},
        "units": [{"id": "u0", "w": 0, "d": 2, "h": 1}],
    }))
    assert cli_main(["solve", str(missing_unit_dim)]) == 2
    err = capsys.readouterr().err
    assert "u0" in err


def test_deeply_nested_json_exits_2(instance_path, tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 1000 + "]" * 1000)
    for argv in (["solve", str(nested)], ["validate", str(nested), str(instance_path)]):
        capsys.readouterr()
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("which", ["solve", "validate-solution", "validate-instance"])
def test_non_utf8_input_exits_2(instance_path, tmp_path, capsys, which):
    # A UTF-16 file with its byte order mark: the first byte is not UTF-8.
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + json.dumps(INSTANCE).encode("utf-16-le"))
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(instance_path), "--out", str(out)]) == 0
    argv = {"solve": ["solve", str(bad)],
            "validate-solution": ["validate", str(bad), str(instance_path)],
            "validate-instance": ["validate", str(out), str(bad)]}[which]
    capsys.readouterr()
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out", "--trace", "--svg"])
def test_unwritable_output_exits_2(instance_path, tmp_path, capsys, flag):
    target = tmp_path / "missing" / "file"
    assert cli_main(["solve", str(instance_path), flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_bad_value_is_shown_shortened(instance_path, tmp_path, capsys):
    # a 300-deep list parses fine; its full repr would be 600 characters
    deep = json.loads("[" * 300 + "]" * 300)
    inst = tmp_path / "deep_w.json"
    inst.write_text(json.dumps({**INSTANCE, "units": [{"id": "u0", "w": deep, "d": 2, "h": 1}]}))
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(instance_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["placements"][0]["x"] = deep
    out.write_text(json.dumps(doc))
    for argv in (["solve", str(inst)], ["validate", str(out), str(instance_path)]):
        capsys.readouterr()
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err) < 200


LONG = "k" * 5000


@pytest.mark.parametrize("doc", [
    {**INSTANCE, "units": [{"id": LONG, "w": 1, "d": 1, "h": 1}] * 2},
    {**INSTANCE, "params": {LONG: 1}},
    {**INSTANCE, LONG: 1},
    {**INSTANCE, "params": {"bound_mode": LONG}},
    {**INSTANCE, "units": [{"id": LONG, "w": 0, "d": 1, "h": 1}]},
], ids=["duplicate-id", "params-key", "instance-key", "bound-mode", "id-of-bad-unit"])
def test_outside_string_is_shown_shortened(tmp_path, capsys, doc):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(doc))
    assert cli_main(["solve", str(inst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 200


def test_unknown_unit_id_is_shown_shortened(instance_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(instance_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["placements"][0]["id"] = LONG
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["validate", str(out), str(instance_path)]) == 1  # a violation, not bad input
    lines = capsys.readouterr().out.splitlines()
    unknown = [line for line in lines if "unknown unit id" in line]
    assert len(unknown) == 1 and len(unknown[0]) < 200
    assert all(len(line) < 200 for line in lines)


def _swap_placements(doc):
    doc["placements"].reverse()


def _off_the_edge(doc):
    doc["placements"][0]["x"] = 3


def _afloat(doc):
    doc["placements"][0]["z"] = 1


@pytest.mark.parametrize("tamper,violation", [
    (_swap_placements, "picking order"),
    (_off_the_edge, "bounds"),
    (_afloat, "support"),
], ids=["picking-order", "bounds", "support"])
def test_violating_unit_id_is_shown_shortened(tmp_path, capsys, tamper, violation):
    # A valid 5,000-character unit id, placed where it breaks one rule.
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({
        **INSTANCE,
        "units": [{"id": LONG, "w": 2, "d": 2, "h": 1}, {"id": "u1", "w": 2, "d": 1, "h": 1}],
        "params": {"vertical_support_min": 1.0},
    }))
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(inst), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [p["id"] for p in doc["placements"]] == [LONG, "u1"]
    tamper(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["validate", str(out), str(inst)]) == 1
    lines = capsys.readouterr().out.splitlines()
    named = [line for line in lines if violation in line]
    assert len(named) == 1 and named[0].startswith("INVALID: placement ")
    assert all(len(line) < 200 for line in lines)


def test_validate_rejects_a_unit_loaded_under_an_overhang(tmp_path, capsys):
    # Two posts, a bridge across them, and a unit in the gap under the
    # bridge: each unit is supported, but the last one could only have gone
    # in from the side. Units are loaded from above.
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({
        "pallet": {"width": 4, "depth": 1, "max_height": 2},
        "units": [{"id": "a", "w": 1, "d": 1, "h": 1}, {"id": "b", "w": 1, "d": 1, "h": 1},
                  {"id": "bridge", "w": 4, "d": 1, "h": 1}, {"id": "c", "w": 2, "d": 1, "h": 1}],
        "params": {"vertical_support_min": 0.5},
    }))
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(inst), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["placements"] = [{"id": i, "x": x, "y": 0, "z": z, "rotated": False}
                         for i, x, z in (("a", 0, 0), ("b", 3, 0), ("bridge", 0, 1), ("c", 1, 0))]
    doc["placed_volume"] = 8
    doc["utilization"] = 1.0
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["validate", str(out), str(inst)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "under" in line] == [
        "INVALID: placement 3 ('c'): overlaps another unit, lies under one, "
        "or exceeds pallet bounds"]


def test_flag_overrides_are_echoed(instance_path, tmp_path):
    out = tmp_path / "solution.json"
    code = cli_main([
        "solve", str(instance_path), "--out", str(out),
        "--max-branches", "2", "--bound-mode", "lp", "--vertical-support", "0.5",
        "--gap", "1", "--px", "1", "--py", "2", "--pz", "3",
    ])
    assert code == 0
    echo = json.loads(out.read_text())["params_echo"]
    assert echo["max_branches"] == 2
    assert echo["bound_mode"] == "lp_relaxation"
    assert echo["vertical_support_min"] == 0.5
    assert echo["gap_tolerance"] == 1
    assert (echo["p_x"], echo["p_y"], echo["p_z"]) == (1, 2, 3)


def _big_instance(tmp_path, **params):
    """An 80-unit instance file whose search takes far more than a second:
    the units do not all fit, so no incumbent ends it early."""
    units = [
        {"id": f"u{i}", "w": 137 + (i * 13) % 211, "d": 141 + (i * 29) % 173,
         "h": 123 + (i * 7) % 131}
        for i in range(80)
    ]
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps({
        "pallet": {"width": 1200, "depth": 800, "max_height": 1500},
        "units": units,
        "params": {"vertical_support_min": 0.7, **params},
    }))
    return inst


def test_time_limit_records_timeout(tmp_path):
    inst = _big_instance(tmp_path)
    out = tmp_path / "solution.json"
    code = cli_main(["solve", str(inst), "--out", str(out), "--time-limit-ms", "1"])
    assert code == 0
    assert json.loads(out.read_text())["stats"]["timed_out"] is True


def test_node_budget_stops_at_its_node_and_reruns_identically(tmp_path, capsys):
    inst = _big_instance(tmp_path)
    out = tmp_path / "solution.json"
    code = cli_main(["solve", str(inst), "--out", str(out), "--max-nodes", "50",
                     "--seed-check"])
    assert code == 0
    err = capsys.readouterr().err
    assert "seed-check: ok" in err and "node budget reached" in err
    doc = json.loads(out.read_text())
    assert doc["stats"]["nodes_expanded"] == 50 and doc["stats"]["timed_out"] is True
    assert doc["params_echo"]["max_nodes"] == 50
    assert cli_main(["validate", str(out), str(inst)]) == 0
    # The same budget from the instance's params: the same solution.
    again = tmp_path / "again.json"
    assert cli_main(["solve", str(_big_instance(tmp_path, max_nodes=50)), "--out",
                     str(again)]) == 0
    docs = [json.loads(again.read_text()), doc]
    for d in docs:
        del d["instance_digest"]
    assert docs[0] == docs[1]


def test_unset_node_budget_is_not_echoed(instance_path, tmp_path):
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(instance_path), "--out", str(out)]) == 0
    assert "max_nodes" not in json.loads(out.read_text())["params_echo"]


@pytest.mark.parametrize("flag,params", [
    (["--max-nodes", "0"], {}),
    ([], {"max_nodes": 0}),
    ([], {"max_nodes": 2.5}),
    ([], {"max_nodes": True}),
], ids=["flag-zero", "param-zero", "param-float", "param-bool"])
def test_bad_node_budget_exits_2(tmp_path, capsys, flag, params):
    inst = _big_instance(tmp_path, **params)
    assert cli_main(["solve", str(inst), *flag]) == 2
    assert "max_nodes" in capsys.readouterr().err


def test_svg_and_trace_outputs(instance_path, tmp_path):
    out = tmp_path / "solution.json"
    svg = tmp_path / "layout.svg"
    trace = tmp_path / "events.jsonl"
    code = cli_main([
        "solve", str(instance_path), "--out", str(out),
        "--svg", str(svg), "--trace", str(trace),
    ])
    assert code == 0
    assert svg.read_text().startswith("<?xml")
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert any(e["kind"] == "incumbent" for e in events)


def test_trace_streams_the_events_of_solve_with_trace(tmp_path):
    # A node-budgeted trace holds, line for line, the events solve_with_trace returns.
    inst = _big_instance(tmp_path, max_nodes=300)
    trace = tmp_path / "events.jsonl"
    assert cli_main(["solve", str(inst), "--out", str(tmp_path / "s.json"),
                     "--trace", str(trace)]) == 0
    instance = parse_instance(inst.read_text())
    _, events = solve_with_trace(instance.units, instance.pallet, instance.params)
    assert trace.read_text() == "".join(
        json.dumps(ev.as_dict(), sort_keys=True) + "\n" for ev in events)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_trace_write_error_partway_exits_2(tmp_path, capsys):
    # /dev/full opens, and every write that reaches it fails. The trace of
    # 300 nodes is many times the file buffer, so a flush fails mid-solve.
    inst = _big_instance(tmp_path, max_nodes=300)
    instance = parse_instance(inst.read_text())
    _, events = solve_with_trace(instance.units, instance.pallet, instance.params)
    assert sum(len(json.dumps(ev.as_dict())) for ev in events) > 10 * io.DEFAULT_BUFFER_SIZE
    assert cli_main(["solve", str(inst), "--trace", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write /dev/full: ")
    assert captured.err.count("\n") == 1


def test_seed_check_passes(instance_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = cli_main(["solve", str(instance_path), "--out", str(out), "--seed-check"])
    assert code == 0
    assert "seed-check: ok" in capsys.readouterr().err


@pytest.mark.parametrize("path,value", [
    (("placements", 0, "x"), "0"),
    (("placements", 0, "id"), ["u0"]),
    (("placements",), {}),
    (("placements", 0, "rotated"), 0),
    (("params_echo", "vertical_support_min"), True),
    (("utilization",), "0.03"),
], ids=["string-coordinate", "list-id", "placements-object", "int-rotated",
        "bool-threshold", "string-utilization"])
def test_validate_malformed_solution_exits_2(instance_path, tmp_path, capsys, path, value):
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(instance_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["validate", str(out), str(instance_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(path[-1]) in captured.err or "placements" in captured.err


FUZZ_INSTANCE = {
    "pallet": {"width": 6, "depth": 5, "max_height": 6},
    "units": [{"id": "a", "w": 3, "d": 2, "h": 2}, {"id": "b", "w": 2, "d": 2, "h": 1},
              {"id": "c", "w": 4, "d": 1, "h": 3}],
    "params": {"vertical_support_min": 0.5, "max_branches": 3, "time_limit_ms": 2000},
}
# Extreme values beside hypothesis' own draws; JSON text can hold each,
# and an integer past 2**1024 has no float.
EDGES = st.sampled_from([0, -1, 2**53, 2**53 + 1, 2**1024, 1e308, float("inf"),
                         float("-inf"), float("nan"), True, "", [], {}])
HUGE = st.integers(min_value=2**53) | st.integers(max_value=-(2**53))
JSON_VALUES = EDGES | HUGE | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=3),
    max_leaves=6,
)
FIELD_NAMES = st.sampled_from(["id", "w", "d", "h", "x", "y", "z", "rotated", "pallet",
                               "units", "params", "placements", "time_limit_ms",
                               "bound_mode"]) | st.text(max_size=6)


def _slots(node):
    """Every (container, key) in ``node``, nested ones included."""
    items = list(node.items() if isinstance(node, dict) else enumerate(node))
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def mutated(draw, doc):
    """``doc`` as JSON text after one to three edits (a value replaced, a
    field or item dropped, a field or item added), sometimes cut short."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        op = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
        if not slots:
            op = "add"
        node, key = draw(st.sampled_from(slots)) if slots else (doc, None)
        if op == "replace":
            node[key] = draw(JSON_VALUES)
        elif op == "drop":
            del node[key]
        elif isinstance(node, dict):
            node[draw(FIELD_NAMES)] = draw(JSON_VALUES)
        else:
            node.append(draw(JSON_VALUES))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _run_main(argv):
    """``cli.main`` on ``argv``: its exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        old_argv = sys.argv
        sys.argv = ["palletpack", *argv]
        try:
            cli.main()
        except SystemExit as stop:
            code = stop.code
        else:
            code = 0
        finally:
            sys.argv = old_argv
    return code, err.getvalue()


def _solution_doc(doc):
    text = json.dumps(doc)
    inst = parse_instance(text)
    sol = solve(inst.units, inst.pallet, inst.params)
    return json.loads(solution_to_json(build_solution_file(sol, inst.params, text)))


FUZZ_SOLUTION = _solution_doc(FUZZ_INSTANCE)


@settings(max_examples=300)
@given(st.data())
def test_mutated_documents_exit_cleanly(data):
    # solve on a mutated instance, and validate with a mutated solution or
    # instance: every run exits 0, 1 or 2 and prints no traceback.
    instance = data.draw(mutated(FUZZ_INSTANCE))
    solution, other = data.draw(st.sampled_from([
        (mutated(FUZZ_SOLUTION), st.just(json.dumps(FUZZ_INSTANCE))),
        (st.just(json.dumps(FUZZ_SOLUTION)), mutated(FUZZ_INSTANCE)),
    ]))
    solution, other = data.draw(solution), data.draw(other)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("i.json", "s.json", "o.json", "out.json", "o.svg")]
        for path, text in zip(paths, (instance, solution, other)):
            path.write_text(text, encoding="utf-8")
        for argv in (["solve", str(paths[0]), "--out", str(paths[3]), "--svg", str(paths[4])],
                     ["validate", str(paths[1]), str(paths[2])]):
            code, err = _run_main(argv)
            assert code in (0, 1, 2), (argv[0], code, err)
            assert "Traceback" not in err


# Each of these crashed with an OverflowError on an integer past float range.
def test_time_limit_past_float_range_never_runs_out(tmp_path):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({**INSTANCE, "params": {"time_limit_ms": 10**400}}))
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(inst), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["stats"]["timed_out"] is False and doc["placed_volume"] == 4


@pytest.mark.parametrize("doc", [
    {**INSTANCE, "pallet": {"width": 2**53 + 1, "depth": 3, "max_height": 10}},
    {**INSTANCE, "units": [{"id": "u0", "w": 2, "d": 2**1024, "h": 1}]},
], ids=["pallet", "unit"])
def test_length_past_2_53_is_rejected(tmp_path, capsys, doc):
    # A face area past float range crashed the score and the SVG scaling.
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(doc))
    assert cli_main(["solve", str(inst)]) == 2
    err = capsys.readouterr().err
    assert "must be positive and at most 2**53" in err and len(err) < 200


def test_lengths_of_2_53_solve_and_draw(tmp_path):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({
        "pallet": {"width": 2**53, "depth": 2**53, "max_height": 10},
        "units": [{"id": "u0", "w": 2**53, "d": 2, "h": 1},
                  {"id": "u1", "w": 2, "d": 2**53, "h": 1}],
        "params": {"vertical_support_min": 0.0},
    }))
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(inst), "--out", str(out), "--svg",
                     str(tmp_path / "layout.svg")]) == 0
    assert cli_main(["validate", str(out), str(inst)]) == 0


def test_utilization_past_float_range_is_a_violation(instance_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    assert cli_main(["solve", str(instance_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["utilization"] = doc["placed_volume"] = 10**400
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["validate", str(out), str(instance_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["placed_volume", "utilization"]
    assert all(len(line) < 200 for line in lines)


def test_huge_threshold_is_shown_shortened(tmp_path, capsys):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({**INSTANCE, "params": {"vertical_support_min": 10**400}}))
    assert cli_main(["solve", str(inst)]) == 2
    err = capsys.readouterr().err
    assert "vertical_support_min must be in [0, 1]" in err and len(err) < 200
