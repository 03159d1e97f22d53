"""Instance and solution files.

Both formats are plain JSON. An instance names the pallet, the units in
picking order, and optional solver parameters; a solution records the
chosen placements plus enough context (effective parameters, input digest)
to re-validate it independently. Serialization is canonical so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from dataclasses import asdict, dataclass
from typing import Any

from .feasibility import check_overlap_bounds, check_placement
from .model import (
    Dims,
    PackingState,
    Pallet,
    Placement,
    Solution,
    SolverParams,
    TransportUnit,
    oriented,
    volume,
)

# The longest extent a file may give. Each length is then exact as a float
# and each face area (at most 2**106) converts to one; the score's float
# arithmetic fails on an area past float range (about 2**1024).
MAX_LENGTH = 2**53
_NUMBER = ((int, float), "a number")
_INTEGER = (int, "an integer")
# Every params field with the JSON type it must have.
PARAM_TYPES = {
    "vertical_support_min": _NUMBER,
    "horizontal_support_min_x": _NUMBER,
    "horizontal_support_min_y": _NUMBER,
    "gap_tolerance": _INTEGER,
    "p_x": _INTEGER,
    "p_y": _INTEGER,
    "p_z": _INTEGER,
    "max_branches": _INTEGER,
    "time_limit_ms": _INTEGER,
    "bound_mode": (str, "a string"),
    "max_nodes": ((int, type(None)), "an integer or null"),
}


class InstanceFormatError(ValueError):
    """Raised with a message naming the offending field and constraint."""


@dataclass(frozen=True)
class InstanceFile:
    pallet: Pallet
    units: tuple[TransportUnit, ...]
    params: SolverParams


@dataclass(frozen=True)
class SolutionPlacement:
    id: str
    x: int
    y: int
    z: int
    rotated: bool


@dataclass(frozen=True)
class SolutionFile:
    placements: tuple[SolutionPlacement, ...]
    placed_volume: int
    utilization: float
    stats: dict[str, Any]
    params_echo: SolverParams
    instance_digest: str


def _need(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise InstanceFormatError(f"{where}: missing required field {key!r}")
    return obj[key]


def _typed(value: Any, types: type | tuple[type, ...], what: str, field: str, where: str) -> Any:
    # bool is a subclass of int, so true/false pass only where a bool is asked for
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise InstanceFormatError(
            f"{where}: field {field!r} must be {what}, got {reprlib.repr(value)}"
        )
    return value


def _int(value: Any, field: str, where: str) -> int:
    return _typed(value, int, "an integer", field, where)


def _length(value: Any, field: str, where: str) -> int:
    if not 0 < _int(value, field, where) <= MAX_LENGTH:
        raise InstanceFormatError(
            f"{where}: field {field!r} must be positive and at most 2**53, "
            f"got {reprlib.repr(value)}"
        )
    return value


def parse_params(obj: dict, where: str = "params") -> SolverParams:
    unknown = set(obj) - set(PARAM_TYPES)
    if unknown:
        raise InstanceFormatError(f"{where}: unknown field(s) {reprlib.repr(sorted(unknown))}")
    for name, value in obj.items():
        _typed(value, *PARAM_TYPES[name], name, where)
    try:
        return SolverParams(**obj)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def _load_json(text: str, what: str) -> dict:
    """The top-level object of ``what``'s JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceFormatError(f"{what}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{what}: top level must be an object")
    return doc


def _unit(i: int, ru: Any, seen: set[str]) -> TransportUnit:
    """Unit ``i`` of the picking order, checked field by field; the first
    check that fails raises, naming the unit and the field."""
    where = f"units[{i}]"
    if not isinstance(ru, dict):
        raise InstanceFormatError(f"{where}: must be an object")
    uid = _need(ru, "id", where)
    if not isinstance(uid, str) or not uid:
        raise InstanceFormatError(f"{where}: field 'id' must be a nonempty string")
    if uid in seen:
        raise InstanceFormatError(f"units: duplicate id {reprlib.repr(uid)}")
    named = f"unit {reprlib.repr(uid)}"
    dims = Dims(
        _length(_need(ru, "w", where), "w", named),
        _length(_need(ru, "d", where), "d", named),
        _length(_need(ru, "h", where), "h", named),
    )
    return TransportUnit(uid, dims, i)


def parse_instance(text: str) -> InstanceFile:
    """Parse and fully validate an instance document."""
    doc = _load_json(text, "instance")

    pal = _need(doc, "pallet", "instance")
    if not isinstance(pal, dict):
        raise InstanceFormatError("pallet: must be an object")
    pallet = Pallet(
        _length(_need(pal, "width", "pallet"), "width", "pallet"),
        _length(_need(pal, "depth", "pallet"), "depth", "pallet"),
        _length(_need(pal, "max_height", "pallet"), "max_height", "pallet"),
    )

    raw_units = _need(doc, "units", "instance")
    if not isinstance(raw_units, list) or not raw_units:
        raise InstanceFormatError("units: must be a nonempty list (picking order)")
    units = []
    seen: set[str] = set()
    for i, ru in enumerate(raw_units):
        # The common case passes every check of _unit without naming the unit.
        try:
            uid, w, d, h = ru["id"], ru["w"], ru["d"], ru["h"]
        except (TypeError, KeyError):
            uid = None
        if (type(uid) is str and uid and uid not in seen
                and type(w) is int and 0 < w <= MAX_LENGTH
                and type(d) is int and 0 < d <= MAX_LENGTH
                and type(h) is int and 0 < h <= MAX_LENGTH):
            unit = TransportUnit(uid, Dims(w, d, h), i)
        else:
            unit = _unit(i, ru, seen)
        seen.add(unit.id)
        units.append(unit)

    raw_params = doc.get("params", {})
    if not isinstance(raw_params, dict):
        raise InstanceFormatError("params: must be an object")
    params = parse_params(raw_params)

    extra = set(doc) - {"pallet", "units", "params"}
    if extra:
        raise InstanceFormatError(f"instance: unknown field(s) {reprlib.repr(sorted(extra))}")
    return InstanceFile(pallet, tuple(units), params)


def instance_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_solution_file(
    solution: Solution, params: SolverParams, instance_text: str
) -> SolutionFile:
    """Assemble the solution document for a finished run.

    elapsed_ms is deliberately left out of the serialized stats so reruns
    of the same input are byte-identical.
    """
    stats = {
        "nodes_expanded": solution.stats.nodes_expanded,
        "nodes_pruned_by_bound": solution.stats.nodes_pruned_by_bound,
        "candidates_evaluated": solution.stats.candidates_evaluated,
        "timed_out": solution.stats.timed_out,
    }
    return SolutionFile(
        placements=tuple(
            SolutionPlacement(pl.unit_id, pl.x, pl.y, pl.z, pl.rotated)
            for pl in solution.placements
        ),
        placed_volume=solution.placed_volume,
        utilization=solution.utilization,
        stats=stats,
        params_echo=params,
        instance_digest=instance_digest(instance_text),
    )


def solution_to_json(sf: SolutionFile) -> str:
    doc = {
        "placements": [asdict(p) for p in sf.placements],
        "placed_volume": sf.placed_volume,
        "utilization": sf.utilization,
        "stats": sf.stats,
        # An unset max_nodes is left out, so a file from before it existed
        # and one from a run without it are the same bytes.
        "params_echo": {k: v for k, v in asdict(sf.params_echo).items() if v is not None},
        "instance_digest": sf.instance_digest,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_solution(text: str) -> SolutionFile:
    """Parse a solution document, checking the type of every field."""
    doc = _load_json(text, "solution")
    where = "solution"
    raw = _typed(_need(doc, "placements", where), list, "a list", "placements", where)
    placements = []
    for i, rp in enumerate(raw):
        at = f"placements[{i}]"
        if not isinstance(rp, dict):
            raise InstanceFormatError(f"{at}: must be an object")
        placements.append(SolutionPlacement(
            _typed(_need(rp, "id", at), str, "a string", "id", at),
            _int(_need(rp, "x", at), "x", at),
            _int(_need(rp, "y", at), "y", at),
            _int(_need(rp, "z", at), "z", at),
            _typed(_need(rp, "rotated", at), bool, "true or false", "rotated", at),
        ))
    return SolutionFile(
        placements=tuple(placements),
        placed_volume=_int(_need(doc, "placed_volume", where), "placed_volume", where),
        utilization=_typed(_need(doc, "utilization", where), (int, float), "a number",
                           "utilization", where),
        stats=_typed(_need(doc, "stats", where), dict, "an object", "stats", where),
        params_echo=parse_params(
            _typed(_need(doc, "params_echo", where), dict, "an object", "params_echo", where),
            "params_echo",
        ),
        instance_digest=_typed(_need(doc, "instance_digest", where), str, "a string",
                               "instance_digest", where),
    )


def validate_solution(
    sf: SolutionFile, instance: InstanceFile, instance_text: str | None = None
) -> list[str]:
    """Re-check a solution against the instance; returns violations.

    Placements are replayed in order, each checked against only the units
    placed before it, with the thresholds the solution claims it was
    solved with (params_echo).
    """
    violations: list[str] = []
    units_by_id = {u.id: u for u in instance.units}
    params = sf.params_echo

    if instance_text is not None and instance_digest(instance_text) != sf.instance_digest:
        violations.append("instance digest does not match the provided instance")

    last_order = -1
    state = PackingState.empty(instance.pallet)
    total = 0
    for i, sp in enumerate(sf.placements):
        unit = units_by_id.get(sp.id)
        if unit is None:
            violations.append(f"placement {i}: unknown unit id {reprlib.repr(sp.id)}")
            continue
        named = f"placement {i} ({reprlib.repr(sp.id)})"
        if unit.order_index <= last_order:
            violations.append(
                f"{named}: violates picking order "
                f"(order_index {unit.order_index} after {last_order})"
            )
        last_order = max(last_order, unit.order_index)
        dims = oriented(unit, sp.rotated)
        pos = (sp.x, sp.y, sp.z)
        if not check_overlap_bounds(state, pos, dims):
            violations.append(
                f"{named}: overlaps another unit, lies under one, or exceeds pallet bounds"
            )
            continue
        report = check_placement(state, pos, dims, params)
        if not report.feasible:
            violations.append(
                f"{named}: insufficient support "
                f"(vertical {float(report.vertical_fraction):.3f}, "
                f"x {float(report.horiz_x_fraction):.3f}, "
                f"y {float(report.horiz_y_fraction):.3f})"
            )
        state = state.with_placement(Placement(sp.id, pos, dims, sp.rotated))
        total += volume(dims)

    if total != sf.placed_volume:
        violations.append(
            f"placed_volume {reprlib.repr(sf.placed_volume)} does not match placements "
            f"(recomputed {total})"
        )
    expected_util = total / instance.pallet.volume()
    try:
        close = math.isclose(sf.utilization, expected_util, rel_tol=1e-9, abs_tol=1e-12)
    except OverflowError:  # an integer past float range is no utilization
        close = False
    if not close:
        violations.append(
            f"utilization {reprlib.repr(sf.utilization)} does not match recomputed "
            f"{expected_util}"
        )
    return violations
