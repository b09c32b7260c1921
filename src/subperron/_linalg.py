"""Small dense float linear algebra helpers.

The systems solved here are tiny (dependency blocks of desk-scale matrices),
so plain Gaussian elimination and a textbook Lawson-Hanson active-set NNLS
are entirely adequate.
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


def lstsq(a: Matrix, b: list[float]) -> list[float]:
    """Least squares via normal equations (adequate at this scale)."""
    rows = len(a)
    cols = len(a[0])
    ata = [[lsum(a[r][i] * a[r][j] for r in range(rows)) for j in range(cols)]
           for i in range(cols)]
    atb = [lsum(a[r][i] * b[r] for r in range(rows)) for i in range(cols)]
    # ridge-free solve; fall back to a tiny regularization on singularity
    try:
        return solve(ata, atb)
    except SingularSystemError:
        for i in range(cols):
            ata[i][i] += 1e-14
        return solve(ata, atb)


def nnls(a: Matrix, b: list[float], max_iter: int | None = None) -> list[float]:
    """Non-negative least squares, Lawson-Hanson active-set iteration."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    max_iter = max_iter or 6 * (cols + 1)
    x = [0.0] * cols
    passive: set[int] = set()
    for _ in range(max_iter):
        resid = [b[r] - lsum(a[r][j] * x[j] for j in range(cols)) for r in range(rows)]
        w = [lsum(a[r][j] * resid[r] for r in range(rows)) for j in range(cols)]
        candidates = [j for j in range(cols) if j not in passive]
        if not candidates or max(w[j] for j in candidates) <= 1e-13:
            return x
        passive.add(max(candidates, key=lambda j: w[j]))
        while True:
            cols_p = sorted(passive)
            sub = [[a[r][j] for j in cols_p] for r in range(rows)]
            z_p = lstsq(sub, list(b))
            z = [0.0] * cols
            for j, val in zip(cols_p, z_p):
                z[j] = val
            if all(z[j] > 0.0 for j in passive):
                x = z
                break
            alpha = min(
                x[j] / (x[j] - z[j])
                for j in passive
                if z[j] <= 0.0 and x[j] != z[j]
            )
            x = [x[j] + alpha * (z[j] - x[j]) for j in range(cols)]
            passive = {j for j in passive if x[j] > 1e-15}
            if not passive:
                break
    return x
