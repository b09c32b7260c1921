"""Count the code, docstring, comment and blank lines of each module of
``src/subperron``, or, with ``--names``, the references to each name.

An empty or whitespace-only line counts as blank, also inside a docstring.
Of the other lines, one inside a docstring (a string that opens a module,
class or function body) counts as docstring, one holding only a comment as
comment, and every other line as code.  Each line counts once, so the four
counts add up to the length of the module.

``--names`` prints, for each name in ``subperron.__all__``, each public
member of its classes (fields, methods, properties, enum members) and each
private function and class at the top level of a module (``matrices._sccs``),
the number of references in the Python files under ``src/``, ``bench/`` and
``tests/``, so that a helper left without a caller shows up.  A reference
is a read of the name, an attribute read or a keyword argument of that
name, or a string constant that spells it, alone or as the last part of a
dotted path (``bench/tracing.py`` names its targets so).  Definitions,
assignments and imports do not count.  Members and private names are
matched by name alone, so each shares its count with every name or
attribute so spelled (``bench/workloads._measure`` counts for
``spectral._measure``).  Run from any directory:

    python tools/src_lines.py
    python tools/src_lines.py --names
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subperron"
KINDS = ("code", "docstring", "comment", "blank")
TREES = ("src", "bench", "tests")


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


def references(text: str) -> tuple[Counter, Counter]:
    """The reads of bare names and the attribute, keyword and string
    references in the module source ``text``, by name."""
    bare, members = Counter(), Counter()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            members[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            members[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            last = node.value.rsplit(".", 1)[-1]
            if last.isidentifier():
                members[last] += 1
    return bare, members


def public_names() -> list[tuple[str, str, bool]]:
    """``(shown, name, is_member)`` for each name of ``subperron.__all__``
    and each public member of its classes, in that order."""
    sys.path.insert(0, str(PACKAGE.parent))
    import subperron

    out = []
    for name in subperron.__all__:
        out.append((name, name, False))
        value = getattr(subperron, name)
        if isinstance(value, type):
            own = {attr for klass in value.__mro__
                   if klass.__module__.startswith("subperron")
                   for attr in vars(klass) if not attr.startswith("_")}
            out += [(f"{name}.{attr}", attr, True) for attr in sorted(own)]
    return out


def private_names() -> list[tuple[str, str, bool]]:
    """``(shown, name, False)`` for each private function and class at the
    top level of a module of the package, shown as ``module._name``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                out.append((f"{path.stem}.{node.name}", node.name, False))
    return out


def names() -> int:
    counts = {}
    for tree in TREES:
        bare, members = Counter(), Counter()
        for path in sorted((ROOT / tree).rglob("*.py")):
            b, m = references(path.read_text(encoding="utf-8"))
            bare += b
            members += m
        counts[tree] = bare, members
    print(f"{'name':<40}" + "".join(f"{t:>7}" for t in TREES))
    for shown, name, is_member in public_names() + private_names():
        row = [counts[t][1][name] + (0 if is_member else counts[t][0][name])
               for t in TREES]
        print(f"{shown:<40}" + "".join(f"{k:>7}" for k in row))
    return 0


def main() -> int:
    if sys.argv[1:] == ["--names"]:
        return names()
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
