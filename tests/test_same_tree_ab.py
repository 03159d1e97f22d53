"""``scripts/same_tree_ab.py`` on two copies of the library: it must call
two equal copies' trees identical, and name the placements where one
copy's ranking differs, in each order that ``--both-orders`` loads them."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "same_tree_ab.py"


def copy_src(dest: Path) -> Path:
    """A copy of the library's source directory under ``dest``."""
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_ab(a: Path, b: Path, *extra: str) -> str:
    """The script's output on exact-small at two nodes a solve."""
    done = subprocess.run(
        [sys.executable, "-B", str(SCRIPT), str(a), str(b), "--workloads", "exact-small",
         "--nodes", "2", *extra],
        capture_output=True, text=True, timeout=300, check=True)
    return done.stdout


def test_equal_copies_search_identical_trees(tmp_path):
    out = run_ab(copy_src(tmp_path / "a"), copy_src(tmp_path / "b"))
    assert "trees identical" in out and "DIFFERENT" not in out


def reversed_ranking(dest: Path) -> Path:
    """A copy of the library whose ranked() sorts its pairs worst first, so
    it keeps other pairs."""
    src = copy_src(dest)
    flatstate = src / "palletpack" / "flatstate.py"
    text = flatstate.read_text()
    assert text.count("pairs.sort()") == 1
    flatstate.write_text(text.replace("pairs.sort()", "pairs.sort(reverse=True)"))
    return src


def test_a_reversed_ranking_reads_as_different_placements(tmp_path):
    out = run_ab(copy_src(tmp_path / "a"), reversed_ranking(tmp_path / "b"))
    assert "trees DIFFERENT in placements" in out


def test_both_orders_report_each_order_and_their_geometric_mean(tmp_path):
    # Every round runs once per load order, and each order gets its own line.
    out = run_ab(copy_src(tmp_path / "a"), copy_src(tmp_path / "b"), "--both-orders")
    rounds = [line for line in out.splitlines() if " round 1 (" in line]
    assert [line.split("(")[1].split(")")[0] for line in rounds] == [
        "A loaded first", "B loaded first"]
    assert "A loaded first: nodes/s B/A median" in out
    assert "B loaded first: nodes/s B/A median" in out
    mean = next(line for line in out.splitlines() if "both orders:" in line)
    medians = [float(line.split("B/A median ")[1][:5]) for line in out.splitlines()
               if "loaded first: nodes/s" in line]
    assert f"of the medians {medians[0]:.3f} and {medians[1]:.3f}" in mean
    # Taken from the unrounded medians: equal to the last printed digit.
    geomean = float(mean.split("geometric mean ")[1][:5])
    assert abs(geomean - (medians[0] * medians[1]) ** 0.5) <= 0.0015
    assert "trees identical in both orders" in mean and "DIFFERENT" not in out


def test_both_orders_name_a_different_tree_in_each_order(tmp_path):
    out = run_ab(copy_src(tmp_path / "a"), reversed_ranking(tmp_path / "b"), "--both-orders")
    lines = out.splitlines()
    for label in ("A loaded first:", "B loaded first:", "both orders:"):
        assert "trees DIFFERENT in placements" in next(line for line in lines if label in line)
