"""Exact sparse linear algebra over the rationals, fraction free.

A matrix is a list of rows, each a dict {column: value} of int or
Fraction entries; absent columns and falsy values are zero.  Every
function takes and returns this format, so no dense row is built.
mat_det and the solve read columns 0..n-1, n the number of rows;
mat_rank reads the columns that occur, however large their indices.

One kernel serves rank, det and solve.  It holds each row as
{column: int}, the entries times the lcm of the row's denominators,
and reduces the rows in order, always at their first column c.  If c
has a pivot row, which is zero before c, the row becomes
(pv/g) row - (f/g) pivot_row with g = gcd(pv, f), divided by the gcd of
its entries (Bareiss, Math. Comp. 22, 1968).  A row still nonzero
becomes the pivot row of its first column, if that column is one read.
Reduction stops once every column read has a pivot, so the dependent
rows after that point cost nothing.

mat_det multiplies the pivots, undoes the row scales and multipliers,
and takes the sign of the permutation that sends each row to its pivot
column.  The solve behind mat_inv back-substitutes over the pivot rows,
last column first; a tall system of full column rank is solved on its
pivot rows alone.  Results are Fractions, zeros left out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Q0, Q1


def _int_rows(rows):
    """Each row as {column: int}, scaled by the lcm of its denominators, and the lcms' product.

    A row of nonzero ints is used as given: _echelon never writes a row."""
    out, scale = [], 1
    for row in rows:
        if all(type(x) is int and x for x in row.values()):
            out.append(row)
            continue
        pairs = [(j, x.as_integer_ratio()) for j, x in row.items() if x]
        d = lcm(*[q for _j, (_n, q) in pairs])
        out.append({j: n * (d // q) for j, (n, q) in pairs})
        scale *= d
    return out, scale


def _echelon(m, cols):
    """Reduce the dict rows m in order, pivoting on the columns in cols only.

    Returns {column: pivot row} in row order, and (num, den) with
    det(m before) = num/den * det(m after) when every row is a pivot."""
    pivots = {}
    num = den = 1
    for row in m:
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                if c in cols:
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
        if len(pivots) == len(cols):
            break
    return pivots, num, den


def mat_rank(rows) -> int:
    m, _scale = _int_rows(rows)
    return len(_echelon(m, {c for row in m for c in row})[0])


def mat_det(rows) -> Fraction:
    n = len(rows)
    m, scale = _int_rows(rows)
    pivots, num, den = _echelon(m, range(n))
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

    right's rows are keyed by its own columns.  A tall a is solved on
    its pivot rows.  Raises when rank(a) < n."""
    aug = [{**row, **{n + k: v for k, v in extra.items()}} for row, extra in zip(a, right)]
    pivots, _num, _den = _echelon(_int_rows(aug)[0], range(n))
    if len(pivots) < n:
        raise ZeroDivisionError("singular system")
    x = [None] * n
    for c in range(n - 1, -1, -1):
        prow = pivots[c]
        acc = {j - n: Fraction(v) for j, v in prow.items() if j >= n}
        for j, v in prow.items():
            if c < j < n:
                for k, t in x[j].items():
                    acc[k] = acc.get(k, 0) - v * t
        x[c] = {k: s / prow[c] for k, s in acc.items() if s}
    return x


def mat_inv(a):
    """Inverse of square a by one solve of a X = I.  Raises on singular a."""
    return _solve_augmented(a, [{i: Q1} for i in range(len(a))], len(a))


def mat_mul(a, b):
    out = []
    for ai in a:
        oi = {}
        for t, f in ai.items():
            for j, y in b[t].items():
                oi[j] = oi.get(j, 0) + f * y
        out.append({j: v for j, v in oi.items() if v})
    return out
