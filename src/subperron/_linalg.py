"""Small dense float linear algebra helpers.

The systems solved here are tiny (dependency blocks of desk-scale matrices),
so plain Gaussian elimination is entirely adequate.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import add

from .errors import SingularSystemError

Matrix = list[list[float]]

PIVOT_TOL = 1e-12

if sys.version_info >= (3, 12):
    def lsum(xs) -> float:
        """The sum of floats, added left to right from 0.0.  The builtin
        ``sum`` compensates the rounding from Python 3.12 on, so the
        printed reports would change their last bits with the version."""
        return reduce(add, xs, 0.0)
else:
    lsum = sum  # adds floats left to right, in C


def solve(a: Matrix, b: list[float]) -> list[float]:
    """Solve ``a x = b`` by Gaussian elimination with partial pivoting.

    Raises SingularSystemError when a pivot falls below 1e-12.
    """
    n = len(a)
    aug = [list(map(float, row)) + [float(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) < PIVOT_TOL:
            raise SingularSystemError(f"pivot {aug[piv][col]!r} below tolerance")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1.0 / aug[col][col]
        for r in range(col + 1, n):
            f = aug[r][col] * inv
            if f:
                for c in range(col, n + 1):
                    aug[r][c] -= f * aug[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = aug[r][n] - lsum(aug[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / aug[r][r]
    return x

