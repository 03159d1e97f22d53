"""``scripts/trace_report.py`` on the trace of a tiny solve."""

import importlib.util
import json
from pathlib import Path

from palletpack.cli import cli_main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trace_report.py"
_spec = importlib.util.spec_from_file_location("trace_report", SCRIPT)
trace_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_report)

# Unit c (4x4x2) fits on no state that holds a or b, so the first dive
# skips it; the third root, c itself, fills the pallet.
INSTANCE = {
    "pallet": {"width": 4, "depth": 4, "max_height": 2},
    "units": [{"id": "a", "w": 3, "d": 3, "h": 1}, {"id": "b", "w": 2, "d": 2, "h": 1},
              {"id": "c", "w": 4, "d": 4, "h": 2}, {"id": "d", "w": 2, "d": 2, "h": 1},
              {"id": "e", "w": 1, "d": 4, "h": 1}],
    "params": {"vertical_support_min": 0.5, "max_branches": 2},
}


def test_reports_nodes_per_depth_and_each_incumbents_node(tmp_path, capsys):
    instance, trace = tmp_path / "instance.json", tmp_path / "trace.jsonl"
    instance.write_text(json.dumps(INSTANCE))
    solution = tmp_path / "solution.json"
    assert cli_main(["solve", str(instance), "--out", str(solution),
                     "--trace", str(trace)]) == 0
    stats = json.loads(solution.read_text())["stats"]
    capsys.readouterr()
    assert trace_report.main([str(trace)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0] == ["nodes", "7,", "empty", "1,", "skips", "1,", "prunes", "8,",
                        "incumbents", "5"]
    assert (stats["nodes_expanded"], stats["nodes_pruned_by_bound"]) == (7, 8)
    # depth, nodes, of them those that ranked nothing (c's), skips, prunes
    assert lines[1] == ["depth", "nodes", "empty", "skips", "prunes"]
    assert lines[2:6] == [["0", "3", "0", "0", "2"], ["1", "1", "0", "0", "5"],
                          ["2", "2", "1", "1", "1"], ["3", "1", "0", "0", "0"]]
    # skips in a row, openings that made them: the dive opens a, b, c (which
    # skips to d on the same state) and e; roots b and c open once each.
    assert lines[6] == ["chain", "openings"]
    assert lines[7:9] == [["0", "5"], ["1", "1"]]
    # incumbent, the node that found it, its volume: the dive's four, then root c's
    assert lines[9] == ["incumbent", "node", "volume"]
    assert lines[10:] == [["1", "1", "9"], ["2", "2", "13"], ["3", "4", "17"], ["4", "5", "21"],
                          ["5", "7", "32"]]
    assert json.loads(solution.read_text())["placed_volume"] == 32


def test_a_chain_ends_where_an_opening_is_pruned_or_places():
    # Two units skipped on one state, then a prune closes that opening; the
    # next expand opens a state afresh even though the last event was a
    # prune, and an opening that places ends its chain at 0.
    def ev(kind, depth=1, **fields):
        return json.dumps({"kind": kind, "depth": depth, **fields})

    lines = [ev("expand", candidates=0), ev("skip"), ev("expand", candidates=0), ev("skip"),
             ev("prune"), ev("expand", candidates=3), ev("place"),
             ev("expand", 2, candidates=0), ev("skip", 2), ev("expand", 2, candidates=1)]
    per_depth, chains, incumbents = trace_report.report(lines)
    assert chains == {2: 1, 0: 1, 1: 1}
    assert (per_depth[1]["expand"], per_depth[1]["empty"], per_depth[1]["skip"]) == (3, 2, 2)
    assert (per_depth[2]["expand"], per_depth[2]["empty"]) == (2, 1)
    assert incumbents == []
