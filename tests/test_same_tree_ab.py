"""``scripts/same_tree_ab.py`` on two copies of the library: it must call
two equal copies' trees identical, and name the placements where one
copy's ranking differs."""

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


def run_ab(a: Path, b: Path) -> str:
    """The script's output on exact-small at two nodes a solve."""
    done = subprocess.run(
        [sys.executable, "-B", str(SCRIPT), str(a), str(b), "--workloads", "exact-small",
         "--nodes", "2"],
        capture_output=True, text=True, timeout=300, check=True)
    return done.stdout


def test_equal_copies_search_identical_trees(tmp_path):
    out = run_ab(copy_src(tmp_path / "a"), copy_src(tmp_path / "b"))
    assert "trees identical" in out and "DIFFERENT" not in out


def test_a_reversed_ranking_reads_as_different_placements(tmp_path):
    # B's ranked() sorts its pairs worst first, so it keeps other pairs.
    b = copy_src(tmp_path / "b")
    flatstate = b / "palletpack" / "flatstate.py"
    text = flatstate.read_text()
    assert text.count("pairs.sort()") == 1
    flatstate.write_text(text.replace("pairs.sort()", "pairs.sort(reverse=True)"))
    out = run_ab(copy_src(tmp_path / "a"), b)
    assert "trees DIFFERENT in placements" in out
