import json

import pytest

from palletpack.cli import cli_main

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


def test_time_limit_records_timeout(tmp_path):
    units = [
        {"id": f"u{i}", "w": 37 + (i * 13) % 211, "d": 41 + (i * 29) % 173,
         "h": 23 + (i * 7) % 131}
        for i in range(40)
    ]
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps({
        "pallet": {"width": 1200, "depth": 800, "max_height": 1500},
        "units": units,
        "params": {"vertical_support_min": 0.7},
    }))
    out = tmp_path / "solution.json"
    code = cli_main(["solve", str(inst), "--out", str(out), "--time-limit-ms", "1"])
    assert code == 0
    assert json.loads(out.read_text())["stats"]["timed_out"] is True


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
