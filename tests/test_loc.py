"""``scripts/loc.py`` counts code lines, not comments or docstrings."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", SCRIPT)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a comment after code


def area(r):
    """Docstring."""
    # a comment line
    return (math.pi
            * r ** 2)


NAME = """a string
that is code"""
'''


def test_counts_code_lines_only():
    # import, def, the two lines of the return, and both lines of NAME
    assert loc.code_lines(SNIPPET) == 6
