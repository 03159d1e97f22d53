"""The library loads none of the test references: a fresh interpreter that
imports the CLI has not imported them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REFERENCES = ("palletpack.extreme_points", "palletpack.grid", "palletpack.oracle")

PROBE = """
import sys
import palletpack.cli
print("\\n".join(sorted(sys.modules)))
"""


def test_the_cli_imports_no_reference():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.split())
    assert "palletpack.cli" in loaded and "palletpack.search" in loaded
    found = [name for name in sorted(loaded)
             if name in REFERENCES or "reference" in name.split(".")]
    assert found == []
