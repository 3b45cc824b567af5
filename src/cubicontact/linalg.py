"""Exact dense linear algebra over the rationals.

Plain Gaussian elimination with first-nonzero pivoting; no floating
point, no pivot-size heuristics.  Matrices are lists of lists of
Fraction (rows).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Q0, Q1


def mat_copy(rows):
    return [list(r) for r in rows]


def _eliminate(m, n_cols: int, jordan: bool = False):
    """Row-reduce m in place on its first n_cols columns.

    First-nonzero pivoting.  Entries below each pivot are cleared (row
    echelon form); with jordan=True each pivot row is also scaled to a
    leading 1 and the entries above the pivot are cleared (reduced row
    echelon form).  Columns past n_cols, such as an augmented right-hand
    side, are carried along.  Returns the pivot columns and the sign of
    the row permutation.
    """
    n_rows = len(m)
    pivots = []
    sign = 1
    for col in range(n_cols):
        top = len(pivots)
        if top == n_rows:
            break
        piv = next((r for r in range(top, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            sign = -sign
        prow = m[top]
        width = len(prow)
        inv = Q1 / prow[col]
        if jordan:
            for c in range(col, width):
                prow[c] *= inv
            targets = (r for r in range(n_rows) if r != top)
        else:
            targets = range(top + 1, n_rows)
        for r in targets:
            f = m[r][col]
            if f == 0:
                continue
            if not jordan:
                f = f * inv
            row = m[r]
            for c in range(col, width):
                row[c] -= prow[c] * f
        pivots.append(col)
    return pivots, sign


def mat_rank(rows) -> int:
    if not rows:
        return 0
    m = mat_copy(rows)
    pivots, _sign = _eliminate(m, len(m[0]))
    return len(pivots)


def mat_det(rows) -> Fraction:
    n = len(rows)
    m = mat_copy(rows)
    pivots, sign = _eliminate(m, n)
    if len(pivots) < n:
        return Q0
    det = Fraction(sign)
    for i in range(n):
        det *= m[i][i]
    return det


def _solve_augmented(a, right):
    """Reduce [a | right] for square a; returns the reduced right block."""
    n = len(a)
    m = [list(row) + list(extra) for row, extra in zip(a, right)]
    pivots, _sign = _eliminate(m, n, jordan=True)
    if len(pivots) < n:
        raise ZeroDivisionError("singular system")
    return [row[n:] for row in m]


def mat_solve(a, b):
    """Solve a x = b for square a; b is a vector.  Raises on singular a."""
    return [row[0] for row in _solve_augmented(a, [[bv] for bv in b])]


def mat_inv(a):
    """Inverse of square a by one reduction of [a | I].  Raises on singular a."""
    n = len(a)
    identity = [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)]
    return _solve_augmented(a, identity)


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[Q0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            f = ai[t]
            if f == 0:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j]:
                    oi[j] += f * bt[j]
    return out
