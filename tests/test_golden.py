"""Golden outputs: solution bytes and trace events pinned across commits.

Each case generates a seeded instance with ``scripts/generate_instance.py``,
overrides its params, and runs a complete search. The sha256 of the
canonical solution file and of the ordered trace event dicts must match the
recorded values, so any change to the search tree, the tie-breaks or the
statistics shows up here even when every other test still passes.
Re-record only for a change that is meant to alter solver output, and say
so in the change log. The work-capped cases at the end run a hand-written
instance under a lowered knapsack work cap instead.
"""

import hashlib
import json
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import pytest

from palletpack import bounds, search
from palletpack.files import build_solution_file, parse_instance, solution_to_json
from palletpack.search import solve_with_trace

GENERATOR = Path(__file__).resolve().parent.parent / "scripts" / "generate_instance.py"
PALLET = (600, 400, 600)

# (units, seed, params, solution sha256, trace sha256)
CASES = [
    (8, 1, {"vertical_support_min": 0.7},
     "22d02188b0dbbe85f9e7a398c8a4abdb06c3f2489e8804b72a59b43ace203456",
     "40f41145b4e692741845b987e71ed32c8054ff4b02c5730709769e860ec96b5c"),
    (8, 2, {"vertical_support_min": 0.7, "bound_mode": "lp_relaxation"},
     "339d654d5fd378c90c023c345f5ec88fdc54091dc52c716688ca16a8932ecaa1",
     "f4c711aad1052471bac198bbe5846071c4a7b4a6b5a6130fc0a1e9a758ba3669"),
    (7, 3, {"vertical_support_min": 0.5, "horizontal_support_min_x": 0.3,
            "horizontal_support_min_y": 0.3},
     "35bd9f3fec5e8944fcf15231aba1fe4fb563a1a870656ab8a4f398a7812f4314",
     "8da1356286d65fc3317f1e010f81325e07cb100a2ce2d8410d87ce66bab749ee"),
    (8, 4, {"vertical_support_min": 0.8, "gap_tolerance": 10},
     "4fe3c3152cf73c8da184f85ce0d863613ed3a1a4449958a767cec26bc1d5470c",
     "339640ff771fbaf1256d422b7012ea9a7851bd8b22bc914b9d7806aaf1db31da"),
    (8, 5, {"vertical_support_min": 0.7, "p_x": 20, "p_y": 20, "p_z": 30},
     "fd12b2fc2ad55569912d8da8d623c6fab72716c24dfb3efbe82c730e3905ee1a",
     "1141dfe499d88d6bf316e5d700c31ff469dd264ac2792019e54f37ec7e78dcc4"),
    (10, 6, {"vertical_support_min": 0.7, "max_branches": 1},
     "6fb5d1959ef7b02dfe397e9f9f0a6e85f1a5c59c213f6d78b37ad5a9e7fb4c2a",
     "bd228dcbe2ddb1ed57e212238b5210bb9e80fe8613343e4ace973a95ab4e6cc2"),
    (6, 7, {"vertical_support_min": 0.0, "gap_tolerance": 5, "horizontal_support_min_x": 0.5},
     "9d4d8fc78b49e9833fa50eaf9576fce0e2055b9a3fcff726a654c8fdcf0d4188",
     "1f44e6649608545af1a217763fabd8a1114f328c593702f7bd2d70ca975db3b2"),
    (9, 8, {"vertical_support_min": 1.0, "bound_mode": "lp_relaxation", "p_z": 15,
            "max_branches": 2},
     "ce8801d9be1eea584b63f39c19add667fb2f5e8f36b4ece46c3678dac0e5d230",
     "4021c18ced5d5a04cfb170c19ace5406e6bf79dbcc0c7d6672bf812a55cf9c5e"),
]


def _instance_text(units: int, seed: int, params: dict) -> str:
    out = subprocess.run(
        [sys.executable, str(GENERATOR), "--units", str(units), "--seed", str(seed),
         "--pallet", *map(str, PALLET), "--min-side", "100", "--max-side", "300"],
        capture_output=True, text=True, check=True,
    ).stdout
    doc = json.loads(out)
    doc["params"] = params
    return json.dumps(doc, sort_keys=True)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(units: int, seed: int, params: dict):
    return _solve(_instance_text(units, seed, params))


def _solve(text: str):
    inst = parse_instance(text)
    sol, trace = solve_with_trace(inst.units, inst.pallet, inst.params)
    solution = solution_to_json(build_solution_file(sol, inst.params, text))
    events = json.dumps([e.as_dict() for e in trace], sort_keys=True)
    return sol, trace, _sha(solution), _sha(events)


@pytest.mark.parametrize("units,seed,params,solution_sha,trace_sha", CASES,
                         ids=[f"seed{c[1]}" for c in CASES])
def test_golden_output(units, seed, params, solution_sha, trace_sha):
    sol, _, got_solution, got_trace = _run(units, seed, params)
    assert not sol.stats.timed_out
    assert got_solution == solution_sha
    assert got_trace == trace_sha


def test_golden_batch_covers_skip_and_prune():
    kinds = set()
    for units, seed, params, _, _ in CASES:
        _, trace, _, _ = _run(units, seed, params)
        kinds.update(e.kind for e in trace)
    assert {"skip", "prune"} <= kinds


# Twenty equal cubes and a column 3.5 cubes high. Near the root the bound
# sees more than EXACT_ITEM_LIMIT equal volumes and a capacity that is no
# multiple of them, so the subset-sum search runs until the work cap trips
# and returns the relaxation value. Under a cap of 151 one such fallback
# keeps a node that the exact bound would prune; a cap of 152 lets that
# search finish. The pair pins the step at which the cap trips.
CAPPED_INSTANCE = {
    "pallet": {"width": 100, "depth": 100, "max_height": 350},
    "units": [{"id": f"u{i:03d}", "w": 100, "d": 100, "h": 100} for i in range(20)],
    "params": {"vertical_support_min": 1.0, "max_branches": 2},
}

# (work cap, solution sha256, trace sha256)
CAPPED_CASES = [
    (151,
     "f3977f44971f07f72702abdb9c7c6066c109f37c6595f71601e52fd6c008263b",
     "cb05ba3a07012c46d56d99e7bd7209f314c68892fa593cd64d2b65fb77a8472c"),
    (152,
     "b5ca885faf9a2ede9169fbd3be402a46cbbafe4bb93179266457577b2e130ff2",
     "0279bdb7477bfa873323b3df698a39f871c045a9bf3e197df87d08d00512bb89"),
]


def _best_fill(volumes, capacity):
    """Largest subset sum of ``volumes`` not above ``capacity``, by meeting
    in the middle: exact, and independent of the search being tested."""
    def sums(items):
        out = [0]
        for v in items:
            out += [s + v for s in out]
        return out

    half = len(volumes) // 2
    right = sorted(sums(volumes[half:]))
    best = 0
    for s in sums(volumes[:half]):
        if s <= capacity:
            best = max(best, s + right[bisect_right(right, capacity - s) - 1])
    return best


@pytest.mark.parametrize("cap,solution_sha,trace_sha", CAPPED_CASES,
                         ids=[f"cap{c[0]}" for c in CAPPED_CASES])
def test_golden_output_on_the_work_capped_path(monkeypatch, cap, solution_sha, trace_sha):
    calls = []

    def recorded(volumes, capacity):
        value = bounds.subset_sum_max(volumes, capacity)
        calls.append((volumes, capacity, value))
        return value

    monkeypatch.setattr(bounds, "_WORK_CAP", cap)
    monkeypatch.setattr(search, "subset_sum_max", recorded)
    sol, _, got_solution, got_trace = _solve(json.dumps(CAPPED_INSTANCE, sort_keys=True))
    assert not sol.stats.timed_out
    fallbacks = [
        volumes for volumes, capacity, value in calls
        if len(volumes) > bounds.EXACT_ITEM_LIMIT and value > _best_fill(volumes, capacity)
    ]
    assert fallbacks
    assert got_solution == solution_sha
    assert got_trace == trace_sha
