#!/usr/bin/env python3
"""Count the code lines of each library module.

A code line holds at least one token of a statement that is not a bare
string: blank lines, comments and docstrings do not count. Prints one
line per module and the total, for the library (``src/palletpack``) or
for the directories and files given.

Example:
    python scripts/loc.py
    python scripts/loc.py src/palletpack/flatstate.py
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "palletpack"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the logical line's tokens so far
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", type=Path, default=[LIBRARY],
                    help="modules or directories of modules (default: the library)")
    args = ap.parse_args()
    files = []
    for path in args.paths:
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
