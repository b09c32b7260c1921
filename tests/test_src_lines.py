"""``tools/src_lines.py``: the line census of ``src/subperron`` and, with
``--names``, the reference census of the public names."""

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
