"""Show what ``import subperron.cli`` costs a fresh process.

Every ``subperron`` command is a new interpreter, so the import runs once
per command.  This script imports ``subperron.cli`` from ``src/`` and
prints each module that the import added to ``sys.modules``, then its wall
time.  It exits 1 when ``dataclasses`` or ``inspect`` is among the added
modules: the package's records are named tuples, and neither import chain
is needed to start a command.  Run it as a script, so that its interpreter
is fresh, from any directory:

    python tools/startup.py
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
#: modules whose import at start-up is a regression
FORBIDDEN = ("dataclasses", "inspect")


def main() -> int:
    sys.path.insert(0, SRC)
    before = set(sys.modules)
    start = time.perf_counter()
    import subperron.cli  # noqa: F401
    wall = time.perf_counter() - start
    added = sorted(set(sys.modules) - before)
    for name in added:
        print(name)
    print(f"import subperron.cli: {len(added)} modules added, "
          f"{wall * 1e3:.1f} ms")
    loaded = [name for name in FORBIDDEN if name in added]
    if loaded:
        print(f"error: the import loaded {', '.join(loaded)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
