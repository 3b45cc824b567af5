"""Exact dense linear algebra over the rationals, fraction free.

Matrices are lists of rows of int or Fraction entries.  One elimination
kernel serves every routine.  It multiplies each row by the lcm of its
denominators and works on ints (Bareiss, Math. Comp. 22, 1968): a row
with a nonzero f in the pivot column becomes

    row <- (pv/g) row - (f/g) pivot_row,   g = gcd(pv, f),

divided by the gcd of its entries, which keeps it no larger than the
Bareiss row.  Rows with a zero in the pivot column are skipped.
mat_det tracks the row scales and multipliers exactly; the solve behind
mat_inv divides by each pivot once, at the end.  The solve also takes
tall systems of full column rank: the solution is read off the pivot
rows, which is the unique solution when the system is consistent (the
caller checks consistency).  Its one tall caller is the test reference
for the embedding check, which solves the map J of V* into g(1,1) from
every pair of the B table.  Results are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Q0, Q1


def _scaled_rows(rows):
    """Each row times the lcm of its denominators, as ints, and the lcms' product.

    The package fills its sparse matrices (d(theta~), b_rank rows,
    identities) with the shared zero Q0; those entries are skipped by
    identity, so only a row's other entries are converted.
    """
    out, scale = [], 1
    for row in rows:
        pairs = [(i, x.as_integer_ratio()) for i, x in enumerate(row) if x is not Q0]
        d = lcm(*[q for _i, (_n, q) in pairs])
        ints = [0] * len(row)
        for i, (n, q) in pairs:
            ints[i] = n * (d // q)
        out.append(ints)
        scale *= d
    return out, scale


def _eliminate(m, n_cols: int, jordan: bool = False):
    """Row-reduce the integer rows m in place on their first n_cols columns.

    Entries below each pivot are cleared; with jordan=True those above
    it too.  Columns past n_cols, such as an augmented right-hand side,
    are carried along.  Returns the pivot columns and (num, den) with
    det(m before) = num/den * det(m after).
    """
    n_rows = len(m)
    pivots = []
    num = den = 1
    for col in range(n_cols):
        top = len(pivots)
        if top == n_rows:
            break
        piv = next((r for r in range(top, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            num = -num
        prow = m[top]
        pv = prow[col]
        targets = range(n_rows) if jordan else range(top + 1, n_rows)
        for r in targets:
            f = m[r][col]
            if not f or r == top:
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            row = [a * x - b * y for x, y in zip(m[r], prow)]
            c = gcd(*row)
            if c > 1:
                row = [x // c for x in row]
                num *= c
            m[r] = row
            den *= a
        pivots.append(col)
    return pivots, num, den


def mat_rank(rows) -> int:
    m, _scale = _scaled_rows(rows)
    return len(_eliminate(m, len(m[0]) if m else 0)[0])


def mat_det(rows) -> Fraction:
    n = len(rows)
    m, scale = _scaled_rows(rows)
    pivots, num, den = _eliminate(m, n)
    if len(pivots) < n:
        return Q0
    for i in range(n):
        num *= m[i][i]
    return Fraction(num, den * scale)


def _solve_augmented(a, right, n: int):
    """Reduce [a | right] for a with n columns and full column rank.

    a may have more rows than columns (a tall system); the solution is
    read off the n pivot rows, and the other rows are not checked.
    Returns the reduced right block; raises when rank(a) < n.
    """
    m, _scale = _scaled_rows([list(row) + list(extra) for row, extra in zip(a, right)])
    pivots, _num, _den = _eliminate(m, n, jordan=True)
    if len(pivots) < n:
        raise ZeroDivisionError("singular system")
    return [[Fraction(x, m[i][i]) for x in m[i][n:]] for i in range(n)]


def mat_inv(a):
    """Inverse of square a by one reduction of [a | I].  Raises on singular a."""
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
