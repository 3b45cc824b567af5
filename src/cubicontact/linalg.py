"""Exact sparse linear algebra over the rationals, fraction free.

Matrices are lists of rows of int or Fraction entries.  One kernel
serves rank, det and solve, and its work follows the nonzero entries.
It holds each row as {column: int}, the entries times the lcm of the
row's denominators (the shared zero Q0 is skipped by identity), and
reduces the rows in order, always at their first column c.  If c has a
pivot row, which is zero before c, the row becomes (pv/g) row - (f/g)
pivot_row with g = gcd(pv, f), divided by the gcd of its entries
(Bareiss, Math. Comp. 22, 1968).  A row still nonzero becomes the pivot
row of its first column.  Reduction stops once every column has a
pivot, so the dependent rows after that point cost nothing.

mat_det multiplies the pivots, undoes the row scales and multipliers,
and takes the sign of the permutation that sends each row to its pivot
column.  The solve behind mat_inv back-substitutes over the pivot rows,
last column first; a tall system of full column rank is solved on its
pivot rows alone.  Results are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Q0, Q1


def _int_rows(rows):
    """Each row as {column: int}, scaled by the lcm of its denominators, and the lcms' product."""
    out, scale = [], 1
    for row in rows:
        pairs = [(i, x.as_integer_ratio()) for i, x in enumerate(row) if x is not Q0 and x]
        d = lcm(*[q for _i, (_n, q) in pairs])
        out.append({i: n * (d // q) for i, (n, q) in pairs})
        scale *= d
    return out, scale


def _echelon(m, n_cols: int):
    """Reduce the dict rows m in order, pivoting on columns below n_cols only.

    Returns {column: pivot row} in row order, and (num, den) with
    det(m before) = num/den * det(m after) when every row is a pivot."""
    pivots = {}
    num = den = 1
    for row in m:
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                if c < n_cols:
                    pivots[c] = row
                break
            g = gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
            row = {j: a * v for j, v in row.items()}
            for j, y in prow.items():
                row[j] = row.get(j, 0) - b * y
            g = gcd(*row.values()) or 1
            row = {j: v // g for j, v in row.items() if v}
            num, den = num * g, den * a
        if len(pivots) == n_cols:
            break
    return pivots, num, den


def mat_rank(rows) -> int:
    m, _scale = _int_rows(rows)
    return len(_echelon(m, len(rows[0]) if rows else 0)[0])


def mat_det(rows) -> Fraction:
    n = len(rows)
    m, scale = _int_rows(rows)
    pivots, num, den = _echelon(m, n)
    if len(pivots) < n:
        return Q0
    perm = list(pivots)  # row i became the pivot row of column perm[i]
    for i in range(n):
        while perm[i] != i:  # each swap puts one column in place
            j = perm[i]
            perm[i], perm[j], num = perm[j], j, -num
    for c, prow in pivots.items():
        num *= prow[c]
    return Fraction(num, den * scale)


def _solve_augmented(a, right, n: int):
    """x with a x = right, as n rows, for a of n columns and full column rank.

    A tall a is solved on its pivot rows.  Raises when rank(a) < n."""
    m, _scale = _int_rows([list(row) + list(extra) for row, extra in zip(a, right)])
    pivots, _num, _den = _echelon(m, n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular system")
    x = [None] * n
    for c in range(n - 1, -1, -1):
        prow = pivots[c]
        acc = [Fraction(prow.get(n + k, 0)) for k in range(len(right[0]))]
        for j, v in prow.items():
            if c < j < n:
                acc = [s - v * t for s, t in zip(acc, x[j])]
        x[c] = [s / prow[c] for s in acc]
    return x


def mat_inv(a):
    """Inverse of square a by one solve of a X = I.  Raises on singular a."""
    n = len(a)
    identity = [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)]
    return _solve_augmented(a, identity, n)


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
