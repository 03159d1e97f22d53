import dataclasses
import json

import pytest

from palletpack.files import (
    InstanceFormatError,
    build_solution_file,
    instance_digest,
    parse_instance,
    parse_solution,
    solution_to_json,
    validate_solution,
)
from palletpack.model import SolverParams
from palletpack.search import solve

MINIMAL = """
{
  "pallet": {"width": 4, "depth": 3, "max_height": 10},
  "units": [{"id": "u0", "w": 2, "d": 2, "h": 1}]
}
"""

THREE_UNITS = json.dumps({
    "pallet": {"width": 4, "depth": 2, "max_height": 2},
    "units": [
        {"id": "a", "w": 2, "d": 2, "h": 1},
        {"id": "b", "w": 2, "d": 2, "h": 1},
        {"id": "c", "w": 2, "d": 2, "h": 1},
    ],
    "params": {"vertical_support_min": 0.0, "max_branches": 8},
})


def test_parse_minimal_applies_defaults():
    inst = parse_instance(MINIMAL)
    assert inst.pallet.width == 4
    assert len(inst.units) == 1
    assert inst.units[0].order_index == 0
    assert inst.params == SolverParams()


def test_parse_rejects_zero_dimension():
    bad = MINIMAL.replace('"w": 2', '"w": 0')
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(bad)
    assert "u0" in str(err.value) and "positive" in str(err.value)


def test_parse_rejects_duplicate_ids():
    doc = json.loads(MINIMAL)
    doc["units"].append({"id": "u0", "w": 1, "d": 1, "h": 1})
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps(doc))
    assert "duplicate" in str(err.value) and "u0" in str(err.value)


GOOD_UNIT = {"id": "v", "w": 1, "d": 1, "h": 1}


@pytest.mark.parametrize("unit,message", [
    ([], "units[1]: must be an object"),
    ("v", "units[1]: must be an object"),
    ({"w": 1, "d": 1, "h": 1}, "units[1]: missing required field 'id'"),
    ({**GOOD_UNIT, "id": ""}, "units[1]: field 'id' must be a nonempty string"),
    ({**GOOD_UNIT, "id": 7}, "units[1]: field 'id' must be a nonempty string"),
    ({"id": 7}, "units[1]: field 'id' must be a nonempty string"),
    ({**GOOD_UNIT, "id": "u0"}, "units: duplicate id 'u0'"),
    ({"id": "u0"}, "units: duplicate id 'u0'"),
    ({"id": "v", "w": 1, "h": 1}, "units[1]: missing required field 'd'"),
    ({"id": "v", "h": "x"}, "units[1]: missing required field 'w'"),
    ({"id": "v", "w": True, "d": 1}, "unit 'v': field 'w' must be an integer, got True"),
    ({**GOOD_UNIT, "h": 1.5}, "unit 'v': field 'h' must be an integer, got 1.5"),
    ({**GOOD_UNIT, "d": None}, "unit 'v': field 'd' must be an integer, got None"),
    ({**GOOD_UNIT, "d": 0}, "unit 'v': field 'd' must be positive and at most 2**53, got 0"),
    ({**GOOD_UNIT, "w": 2**53 + 1},
     "unit 'v': field 'w' must be positive and at most 2**53, got 9007199254740993"),
])
def test_parse_names_the_first_failing_unit_check(unit, message):
    # The second unit fails; its first failing check, in the order id, w,
    # d, h, gives the message.
    doc = json.loads(MINIMAL)
    doc["units"].append(unit)
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps(doc))
    assert str(err.value) == message


def test_parse_rejects_missing_pallet():
    doc = json.loads(MINIMAL)
    del doc["pallet"]
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps(doc))
    assert "pallet" in str(err.value)


def test_parse_rejects_bad_json_and_unknown_fields():
    with pytest.raises(InstanceFormatError):
        parse_instance("{not json")
    doc = json.loads(MINIMAL)
    doc["params"] = {"vertical_support": 0.5}  # misspelled field
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps(doc))
    assert "vertical_support" in str(err.value)


def test_solution_round_trip_and_validation():
    text = THREE_UNITS
    inst = parse_instance(text)
    solution = solve(inst.units, inst.pallet, inst.params)
    sf = build_solution_file(solution, inst.params, text)
    payload = solution_to_json(sf)
    back = parse_solution(payload)
    assert back == sf
    assert validate_solution(back, inst, text) == []


def test_validation_catches_overlap_tamper():
    text = THREE_UNITS
    inst = parse_instance(text)
    solution = solve(inst.units, inst.pallet, inst.params)
    sf = build_solution_file(solution, inst.params, text)
    doc = json.loads(solution_to_json(sf))
    assert len(doc["placements"]) >= 2
    doc["placements"][1]["x"] = doc["placements"][0]["x"]
    doc["placements"][1]["y"] = doc["placements"][0]["y"]
    doc["placements"][1]["z"] = doc["placements"][0]["z"]
    tampered = parse_solution(json.dumps(doc))
    violations = validate_solution(tampered, inst, text)
    assert any("overlap" in v for v in violations)


def test_validation_catches_order_violation():
    text = THREE_UNITS
    inst = parse_instance(text)
    solution = solve(inst.units, inst.pallet, inst.params)
    sf = build_solution_file(solution, inst.params, text)
    doc = json.loads(solution_to_json(sf))
    assert len(doc["placements"]) >= 2
    doc["placements"][0], doc["placements"][1] = doc["placements"][1], doc["placements"][0]
    tampered = parse_solution(json.dumps(doc))
    violations = validate_solution(tampered, inst, text)
    assert any("picking order" in v for v in violations)


def test_validation_catches_volume_mismatch():
    text = THREE_UNITS
    inst = parse_instance(text)
    solution = solve(inst.units, inst.pallet, inst.params)
    sf = build_solution_file(solution, inst.params, text)
    wrong = dataclasses.replace(sf, placed_volume=sf.placed_volume + 1)
    violations = validate_solution(wrong, inst, text)
    assert any("placed_volume" in v for v in violations)


def test_validation_catches_support_violation():
    text = json.dumps({
        "pallet": {"width": 4, "depth": 3, "max_height": 10},
        "units": [
            {"id": "a", "w": 2, "d": 2, "h": 1},
            {"id": "b", "w": 2, "d": 2, "h": 1},
        ],
        "params": {"vertical_support_min": 0.8},
    })
    inst = parse_instance(text)
    doc = {
        "placements": [
            {"id": "a", "x": 0, "y": 0, "z": 0, "rotated": False},
            {"id": "b", "x": 1, "y": 0, "z": 1, "rotated": False},  # half overhang
        ],
        "placed_volume": 8,
        "utilization": 8 / 120,
        "stats": {"nodes_expanded": 0, "nodes_pruned_by_bound": 0,
                  "candidates_evaluated": 0, "timed_out": False},
        "params_echo": dataclasses.asdict(inst.params),
        "instance_digest": instance_digest(text),
    }
    sf = parse_solution(json.dumps(doc))
    violations = validate_solution(sf, inst, text)
    assert any("support" in v for v in violations)


def test_validation_catches_digest_mismatch():
    text = THREE_UNITS
    inst = parse_instance(text)
    solution = solve(inst.units, inst.pallet, inst.params)
    sf = build_solution_file(solution, inst.params, text + " ")
    violations = validate_solution(sf, inst, text)
    assert any("digest" in v for v in violations)


def test_serialization_is_deterministic():
    text = THREE_UNITS
    inst = parse_instance(text)
    a = solve(inst.units, inst.pallet, inst.params)
    b = solve(inst.units, inst.pallet, inst.params)
    ja = solution_to_json(build_solution_file(a, inst.params, text))
    jb = solution_to_json(build_solution_file(b, inst.params, text))
    assert ja == jb
