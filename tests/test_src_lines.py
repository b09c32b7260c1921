"""``tools/src_lines.py``: the line census of ``src/subperron`` and, with
``--names``, the reference census of the public names and of the private
functions and classes of each module."""

import ast
import subprocess
import sys
from pathlib import Path

import subperron

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def run(*args):
    done = subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_line_kinds_add_up():
    header, *rows, total = run()
    assert header.split() == ["module", "code", "docstring", "comment",
                              "blank", "total"]
    for row in [*rows, total]:
        *kinds, whole = map(int, row.split()[1:])
        assert sum(kinds) == whole
    assert len(rows) == len(list(Path(subperron.__file__).parent.glob("*.py")))


def test_names_lists_every_public_name_and_member():
    header, *rows = run("--names")
    assert header.split() == ["name", "src", "bench", "tests"]
    counts = {name: tuple(map(int, rest))
              for name, *rest in map(str.split, rows)}
    assert set(subperron.__all__) <= set(counts)
    assert {"KirchhoffReport.max_residual", "GrowthType.lam",
            "BlockDecomposition.spans", "BlockClass.PRIMITIVE"} <= set(counts)
    # the frequency commands call normalized_limit, and the tests do too
    src, _, tests = counts["normalized_limit"]
    assert src >= 1 and tests >= 1


def test_names_lists_every_private_function_and_class():
    _, *rows = run("--names")
    counts = {name: tuple(map(int, rest))
              for name, *rest in map(str.split, rows)}
    package = Path(subperron.__file__).parent
    private = {f"{path.stem}.{node.name}"
               for path in package.glob("*.py")
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name[:1] == "_" and node.name[:2] != "__"}
    assert {"matrices._sccs", "matrices._Blocks", "words._Language",
            "cli._parser"} <= private <= set(counts)
    # methods and dunders are not listed on their own
    assert not any(name.split(".")[-1].startswith("__") for name in counts)
    assert "spectral._Trajectory.step" not in counts
    # scc_blocks calls _sccs once; the tests call _build_decomposition
    # directly, and bench/tracing.py names cli._matrix_report in a string
    assert counts["matrices._sccs"][:2] == (1, 0)
    src, _, tests = counts["matrices._build_decomposition"]
    assert src >= 1 and tests >= 1
    assert counts["cli._matrix_report"][1] >= 1
