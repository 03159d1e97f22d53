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
     "bf35479ce7993b1b0aaee09fa8d74156a6c4e150222d5ba97082b125c35c0897",
     "8368f89c114b761686cc4d6bc84944807e8cac0d15495f406687c8f1299c0d66"),
    (8, 2, {"vertical_support_min": 0.7, "bound_mode": "lp_relaxation"},
     "419f383abc3ddeb8b4a131bdfbc025d092aea3df8e10823d70f15e8ea6a87031",
     "0b78b3295ba7e2907ffa5b63411c09a03458c389b4bbee2b9879e2469fd54e92"),
    (7, 3, {"vertical_support_min": 0.5, "horizontal_support_min_x": 0.3,
            "horizontal_support_min_y": 0.3},
     "001afc96b1eff1c8f27c9999bc2a85db7eae58f10adb4416d7be2405a7318fa4",
     "3e7981739e1a36abab7b5808d737ee7afe4f1ee57ae1b8a0db6984e0705a4c12"),
    (8, 4, {"vertical_support_min": 0.8, "gap_tolerance": 10},
     "b92c2b1671e48d4d8e90417695c57e794dd89042100459ea19bbac205f4bfc9f",
     "f3f891bb9286b9b61d4d1eae87dee75ef40a2060687517a81d09042592080657"),
    (8, 5, {"vertical_support_min": 0.7, "p_x": 20, "p_y": 20, "p_z": 30},
     "9ddd48b9d64df9a7c2e0758940c7ea9b790717e9523d755c658cd287461a6f48",
     "359b5c7633c6f746b7aa3535327e7f239229db3c52f00876035c158a4b5afaea"),
    (10, 6, {"vertical_support_min": 0.7, "max_branches": 1},
     "1a769a93f8b1f523849fa30042a7f84642aaa9ed9322e1cfe539fe5c19796fb5",
     "fd9cc71bd2aaad161d2ee73bbd1c8ebc518d77f3ddab9e4eaf47b7d08824a3b3"),
    (6, 7, {"vertical_support_min": 0.0, "gap_tolerance": 5, "horizontal_support_min_x": 0.5},
     "b4519adeae05a2cad4007dbc347dd4103c479f7f88f0fa695e934ca71c91051b",
     "49936d2258477975a5c760ecb81361c4b68e3ae1b7502a7b90aad330504aeccb"),
    (9, 8, {"vertical_support_min": 1.0, "bound_mode": "lp_relaxation", "p_z": 15,
            "max_branches": 2},
     "a7488d130418bdd57d2bc265a502f9f4cac155f198906321386b783faabd6eae",
     "eb1beee6e72cbe6dd70eb11902371a8611391b1379cca2a7be75106bcb84a076"),
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
# and returns the relaxation value, which keeps nodes open that the exact
# bound closes (25 and 21 nodes, against 3 with no cap). A cap of 152 lets
# a search finish that a cap of 151 stops one step short of, so the trees
# differ: the pair pins the step at which the cap trips.
CAPPED_INSTANCE = {
    "pallet": {"width": 100, "depth": 100, "max_height": 350},
    "units": [{"id": f"u{i:03d}", "w": 100, "d": 100, "h": 100} for i in range(20)],
    "params": {"vertical_support_min": 1.0, "max_branches": 2},
}

# (work cap, solution sha256, trace sha256)
CAPPED_CASES = [
    (151,
     "98a23b23390d974b553adc985696a091a888c91fac82e17426f94f8f62156012",
     "33e02e1086855280be5e219f206191b41ff219863db1968f62e519b5f3a6c56c"),
    (152,
     "75c7413ed82b23f180d430d0a69520d9e53fa3fa85ea2922868d1053f182b5df",
     "6f62e465debe0e4e5d7a5abde494b9a45e3f22224100acd307bab52796cc5001"),
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
