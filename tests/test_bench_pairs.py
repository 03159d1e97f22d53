"""``scripts/bench_pairs.py`` on a stub benchmark command, not on perfbench."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Answers as perfbench/run.py does, in its last line: the change side runs
# 10% more nodes per second and as many seconds as the parent, takes half
# again as long to set up, reaches a utilization that swings with the seed
# on both sides alike, and fails one run on workload "small"; every run
# logs its side, seed, and whether a __pycache__ or bytecode writing was
# left on.
STUB = '''
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = open("side.txt").read()
seed = int(args["--seed"])
with open(os.environ["STUB_LOG"], "a") as log:
    log.write(json.dumps([side, args["--workload"], seed, args["--seconds"],
                          os.path.exists("src/__pycache__"),
                          bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))]) + "\\n")
rate = 100.0 + seed * (1.1 if side == "change" else 1.0)
failed = int(side == "change" and args["--workload"] == "small" and seed == 14)
print("human-readable lines first")
print(json.dumps({"correct": True, "attempted": 7, "failed": failed, "metrics": {
    "nodes_per_s": {"value": rate, "unit": "1/s"},
    "solve_s": {"value": 0.5, "unit": "s"},
    "setup_s": {"value": 0.2 * (1.5 if side == "change" else 1.0), "unit": "s"},
    "utilization": {"value": 0.9 if seed % 2 else 0.3, "unit": "fraction"}}}))
'''

BENCHMARK = {
    "run_seconds": 2,
    "workloads": [{"name": "deep"}, {"name": "small"}],
    "end_to_end": [
        {"name": "nodes_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.15},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "utilization", "unit": "fraction", "better": "higher", "bound": 0.25},
    ],
}


def test_pairs_alternate_on_fresh_seeds_and_summarize(tmp_path, monkeypatch, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    config = {"command": [sys.executable, str(stub)], **BENCHMARK}
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "__pycache__").mkdir(parents=True)
        (tmp_path / side / "side.txt").write_text(side)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(config))
    log = tmp_path / "log.jsonl"
    monkeypatch.setenv("STUB_LOG", str(log))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([
        "parent", "change", "--pr", "99", "--pairs", "4", "--seed", "10",
        "--claim", "deep", "nodes_per_s"]) == 0
    out = tmp_path / "BENCH_99.json"

    runs = [json.loads(line) for line in log.read_text().splitlines()]
    # Two workloads of four pairs; the first side alternates, each pair has
    # its own seed, and no run finds a __pycache__ or writes bytecode.
    assert [(r[0], r[1], r[2]) for r in runs[:4]] == [
        ("parent", "deep", 10), ("change", "deep", 10),
        ("change", "deep", 11), ("parent", "deep", 11)]
    assert sorted({(r[1], r[2]) for r in runs}) == (
        [("deep", s) for s in range(10, 14)] + [("small", s) for s in range(14, 18)])
    assert len(runs) == 16
    assert all(r[3] == "2" and not r[4] and r[5] for r in runs)

    doc = json.loads(out.read_text())
    assert list(doc) == ["change", "claim", "machine", "benchmark", "summary", "workloads",
                         "notes"]
    assert doc["change"] == "" and doc["notes"] == []
    assert doc["benchmark"]["seeds"] == {"deep": "10-13", "small": "14-17"}
    deep = doc["summary"]["deep"]
    assert deep["pairs"] == 4
    assert deep["attempted_median"] == {"parent": 7, "change": 7}
    assert deep["failed_total"] == {"parent": 0, "change": 0}
    # Parent rates 110-113: inclusive quartiles 110.75 and 112.25.
    assert deep["nodes_per_s"]["parent"] == {"median": 111.5, "q1": 110.75, "q3": 112.25}
    assert deep["nodes_per_s"]["change_better_pairs"] == 4
    assert deep["nodes_per_s"]["change_worse_pairs"] == 0
    assert deep["nodes_per_s"]["median_change"] == round(112.65 / 111.5 - 1, 4)
    assert (deep["nodes_per_s"]["bound"], deep["nodes_per_s"]["better"]) == (0.25, "higher")
    assert deep["solve_s"]["change_better_pairs"] == deep["solve_s"]["change_worse_pairs"] == 0
    assert doc["claim"]["result"].startswith("not met")  # better by 1.15, IQR 1.5
    # The no-regression verdicts: setup_s is 50% worse against a 25% bound;
    # utilization's parent quartiles (0.3, 0.9) span 100% of its median.
    assert {m: deep[m]["verdict"] for m in ("nodes_per_s", "solve_s", "setup_s",
                                            "utilization")} == {
        "nodes_per_s": "within bound", "solve_s": "within bound",
        "setup_s": "worse past bound", "utilization": "unresolved"}
    assert deep["failed_verdict"] == "no larger share failed"
    small = doc["summary"]["small"]
    assert small["failed_total"] == {"parent": 0, "change": 1}
    assert small["failed_verdict"] == "change fails a larger share"
    printed = capsys.readouterr().out.splitlines()
    assert "deep          setup_s       worse past bound" in "\n".join(printed)
    assert printed[-1].startswith("claim deep nodes_per_s: not met")
    pair = doc["workloads"]["deep"]["pairs"][1]
    assert pair["seed"] == 11 and pair["first"] == "change"
    assert pair["correct"] == {"parent": True, "change": True}
    assert pair["change"]["nodes_per_s"] == 100.0 + 11 * 1.1

    # --against prints the change medians of an earlier file against this one's.
    capsys.readouterr()
    older = tmp_path / "BENCH_98.json"
    older.write_text(json.dumps({"summary": {"deep": {"nodes_per_s": {
        "change": {"median": 100.0}}}}}))
    assert bench_pairs.main([str(out), "--against", str(older)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].split()[:2] == ["deep", "nodes_per_s"]
    assert lines[0].endswith("+12.7%")

    # One file alone prints its verdicts, taken afresh from its summary.
    doc["summary"]["deep"]["setup_s"]["verdict"] = "stale"
    out.write_text(json.dumps(doc))
    assert bench_pairs.main([str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:5] == ["deep", "nodes_per_s", "within", "bound", "median"]
    assert [line.split()[:3] for line in lines if "setup_s" in line] == [
        ["deep", "setup_s", "worse"], ["small", "setup_s", "worse"]]
    assert "small         failed        change fails a larger share (parent 0, change 1)" in lines


# Spins for 0.3 CPU seconds, except on the change side of seed 21, where it
# sleeps for 0.6 s instead: a run that waits and gets little CPU for its
# wall time, as one does on a loaded machine.
SLEEPER = '''
import json, sys, time
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if open("side.txt").read() == "change" and args["--seed"] == "21":
    time.sleep(0.6)
else:
    start = time.process_time()
    while time.process_time() - start < 0.3:
        pass
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "nodes_per_s": {"value": 1.0, "unit": "1/s"}}}))
'''


def test_runs_keep_their_cpu_and_wall_seconds_and_warn_when_loaded(tmp_path, monkeypatch,
                                                                   capsys):
    stub = tmp_path / "sleeper.py"
    stub.write_text(SLEEPER)
    config = {"command": [sys.executable, str(stub)], "run_seconds": 1,
              "workloads": [{"name": "deep"}], "end_to_end": BENCHMARK["end_to_end"][:1]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "side.txt").write_text(side)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["parent", "change", "--pr", "99", "--pairs", "2",
                             "--seed", "20"]) == 0
    pairs = json.loads((tmp_path / "BENCH_99.json").read_text())["workloads"]["deep"]["pairs"]
    for pair in pairs:
        for side in ("parent", "change"):
            assert pair["load_1m"][side] >= 0
            if pair["seed"] == 21 and side == "change":
                assert pair["cpu_s"][side] < 0.3 and pair["wall_s"][side] >= 0.6
            else:
                assert pair["cpu_s"][side] >= 0.3 and pair["wall_s"][side] >= 0.3
    # The sleeping run is named as the pair finishes and again with the
    # verdicts. (A spinning run on a busy machine may be named as well.)
    warned = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("warning: deep seed 21: change ran at CPU/wall 0.")]
    assert len(warned) == 2
    assert bench_pairs.load_warnings("deep", {
        "seed": 5, "cpu_s": {"parent": 9.0, "change": 8.9},
        "wall_s": {"parent": 10.0, "change": 10.0},
        "load_1m": {"parent": 0.5, "change": 2.5}}) == [
        "warning: deep seed 5: change ran at CPU/wall 0.89, load 2.50 before it"]
