"""Count the code, docstring, comment and blank lines of each module of
``src/subperron``.

An empty or whitespace-only line counts as blank, also inside a docstring.
Of the other lines, one inside a docstring (a string that opens a module,
class or function body) counts as docstring, one holding only a comment as
comment, and every other line as code.  Each line counts once, so the four
counts add up to the length of the module.  Run from the repository root:

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subperron"
KINDS = ("code", "docstring", "comment", "blank")


def classify(text: str) -> dict[str, int]:
    """The count of each kind of line in the module source ``text``."""
    lines = text.splitlines()
    kind = ["code"] * len(lines)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start[0] - 1, tok.start[1]
            if not lines[row][:col].strip():
                kind[row] = "comment"
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, scopes)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            for row in range(doc.lineno - 1, doc.end_lineno):
                kind[row] = "docstring"
    for row, line in enumerate(lines):
        if not line.strip():
            kind[row] = "blank"
    return {k: kind.count(k) for k in KINDS}


def main() -> int:
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>11}" for k in KINDS)
          + f"{'total':>11}")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = classify(path.read_text(encoding="utf-8"))
        for k in KINDS:
            totals[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>11}" for k in KINDS)
              + f"{sum(counts.values()):>11}")
    print(f"{'total':<16}" + "".join(f"{totals[k]:>11}" for k in KINDS)
          + f"{sum(totals.values()):>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
