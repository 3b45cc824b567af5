"""Group law and chart solving for the nilpotent group N.

Because n is 3-step nilpotent the Campbell-Hausdorff series terminates:

    H(X, Y) = X + Y + 1/2 [X,Y] + 1/12 [X,[X,Y]] + 1/12 [Y,[Y,X]].

A group element is its logarithm, an NElem: multiplication is H, the
identity is NElem.zero(p) and the inverse of X is -X.

Every double bracket below is [U, C] with C = [X, Y].  The two
third-order terms of H combine by antisymmetry into 1/12 [X - Y, C]:

    H(X, Y) = X + Y + 1/2 C + 1/12 [X - Y, C].

The differential of the exponential chart at X is

    e_X(Y) = Y + 1/2 [X,Y] + 1/12 [X,[X,Y]],

and since ad_X^3 = 0 its inverse is Z - 1/2 [X,Z] + 1/6 [X,[X,Z]].  Its
grade-3 line reads

    Y3 = Z3 - 1/2 [X1,Z2] - 1/2 [X2,Z1] + 1/6 [X1,[X1,Z1]],

valid for every input.  On the chart subspace, where X1 and Z1 share the
same W line and [X1, Z1] = 0, this agrees with the inversion display
that carries a 5/12 coefficient instead; the difference is exactly
1/4 [X1,[X1,Z1]] and a dedicated test records both behaviours.

bch, exp_diff and exp_diff_inv share one kernel with the coefficients
(1/2, 1/12), (1/2, 1/12) and (-1/2, 1/6): two contractions with n's
stored structure-constant rows (``nilpotent.bracket_views``), the table
the jacobi suite checks.  The first gives C = [X, Y] from the cleared
forms of X and Y (``NElem.cleared``).  C has no grade-1 part, so the
second, [C, U] = -[U, C], walks only the p rows of n2, whose brackets
land in the centre n3.  The kernel returns its result in that form,
(nums, den) over one denominator, building no Fraction
(common-denominator arithmetic; Geddes, Czapor and Labahn, Algorithms
for Computer Algebra, 1992, ch. 9).  X and Y have rational, int or
Fraction, coordinates; any other input raises TypeError.  exp_diff and
exp_diff_inv are linear in Y by construction, so the expdiff suite
checks their round trip on every basis element of a block at once at
one Kronecker point (``nilpotent.kronecker_points``), for the bound of
``roundtrip_bound``.

``chart_decompose`` factors exp(U) = exp(X) exp(w (x) p) with X in the
chart complement n_m = (V (x) f2) + V* + W and p = f1 + z f2, in ints
for a rational U and z (the tau check); moment linearizes it.  A chart
element X is an NElem of n_m, its f1 column zero; its chart coordinates
are x1 = X.col(1), x2 = X.n2 and (x3_l, x3_m) = X.n3.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .cubic import DimensionMismatchError, SymCubic
from .nilpotent import NElem, _check_same_dim, bracket_views
from .scalars import (
    HALF,
    Q0,
    QPoly,
    SIXTH,
    TWELFTH,
    cleared_form,
    contract_cleared,
    from_cleared,
)

# The series coefficients (h, t) of exp_diff and of exp_diff_inv.
_DIFF, _DIFF_INV = (HALF, TWELFTH), (-HALF, SIXTH)


def _series(X: NElem, Y: NElem, T: SymCubic, h, t, with_x: bool) -> NElem:
    """[X +] Y + h [X, Y] + t [U, [X, Y]], U = X - Y with X, else U = X:
    the one kernel of bch, exp_diff and exp_diff_inv."""
    _check_same_dim(X, Y, T)
    (xs, dx), (ys, dy) = cleared_form(X), cleared_form(Y)
    rows, dt, p, w = bracket_views(T)[1], T.scaled()[0], T.dim, int(with_x)
    # C = [X, Y] over dc = dt dx dy, then E = [C, U] = -[U, C] from C's n2
    # block over de = dt dc du, U = X - Y over du = dx dy with X, else X.
    cs, dc = contract_cleared(rows, (xs, dx), (ys, dy), len(rows), dt)
    cu = ([xa * dy - ya * dx for xa, ya in zip(xs, ys)], dx * dy) if with_x else (xs, dx)
    es, de = contract_cleared(rows[2 * p:3 * p], (cs[2 * p:3 * p], dc), cu, len(rows), dt)
    # w X + Y over dx dy, h C and -t E, all over hd td de.
    hn, hd, tn, td = h.numerator, h.denominator, t.numerator, t.denominator
    q = de // dc
    return NElem.of_cleared(
        [
            td * q * (hd * dt * (w * xa * dy + ya * dx) + hn * c) - tn * hd * e
            for xa, ya, c, e in zip(xs, ys, cs, es)
        ],
        hd * td * de,
    )


def bch(X: NElem, Y: NElem, T: SymCubic) -> NElem:
    """Truncated Campbell-Hausdorff product H(X, Y), exact."""
    return _series(X, Y, T, HALF, TWELFTH, with_x=True)


def exp_diff(X: NElem, Y: NElem, T: SymCubic) -> NElem:
    """e_X(Y) = Y + 1/2 [X,Y] + 1/12 [X,[X,Y]]; linear in Y."""
    return _series(X, Y, T, *_DIFF, with_x=False)


def exp_diff_inv(X: NElem, Z: NElem, T: SymCubic) -> NElem:
    """The exact Y with exp_diff(X, Y) = Z: Z - 1/2 [X,Z] + 1/6 [X,[X,Z]]."""
    return _series(X, Z, T, *_DIFF_INV, with_x=False)


def roundtrip_bound(X: NElem, T: SymCubic) -> int:
    """A bound C on the integer entries of D (M - I), M the round trip
    Y -> exp_diff(X, exp_diff_inv(X, Y)), linear in Y, and D = D_E D_F
    below: the bound of nilpotent.kronecker_points for M against I.

    With X's coordinates cleared to xs over dx, u = max |xs| and S the
    sum of T.scaled()'s |v|, A = dt dx ad_X is an int matrix: its n2 rows
    sum xs_i v over T's terms, each row sum at most a2 = 2 u S, its n3
    rows hold dt xs_i, row sums at most 2 p dt u, and (A^2 / dt) is an
    int matrix, row sums at most u a2.  A series I + h ad_X + t ad_X^2
    times D_S = hd td dt dx^2 (h = hn/hd, t = tn/td) is then
    D_S I + hn td dx A + tn hd (A^2 / dt), whose row sums R_S are at most
    D_S + |hn| td dx max(a2, 2 p dt u) + |tn| hd u a2.  So every entry of
    D (M - I) is at most R_E R_F + D, from the series coefficients of
    exp_diff and exp_diff_inv.  The bound is that of the series as
    written, not of what ``_series`` returns: a kernel fault that leaves
    it can go unseen (see nilpotent.kronecker_points).
    """
    xs, dx = cleared_form(X)
    dt, rows = T.scaled()
    u = max(map(abs, xs), default=0)
    a2 = 2 * u * sum(abs(v) for row in rows for _j, _k, v in row)
    a1 = max(a2, 2 * T.dim * dt * u)
    bound, den = 1, 1
    for h, t in (_DIFF, _DIFF_INV):
        d = h.denominator * t.denominator * dt * dx * dx
        hn, tn = abs(h.numerator), abs(t.numerator)
        bound *= d + hn * t.denominator * dx * a1 + tn * h.denominator * u * a2
        den *= d
    return bound + den


# --- the chart over the projective W line ------------------------------

def _chart_cleared(us, d, z, T: SymCubic):
    """x1, x2, x3_m, x3_l as (nums, den) int pairs, from U's numerators
    us over d and a rational z.  With w = U_f1 and b = B(x1, w):

        x1 = U_f2 - z w,   x3_l = U3_l - 1/2 x2.w + 1/12 b.w,
        x2 = U2 + 1/2 b,   x3_m = U3_m - 1/2 z x2.w - 1/12 b.x1 + 1/12 z b.w.
    """
    p = T.dim
    dt, rows = T.scaled()
    zn, zd = z.as_integer_ratio()
    w, n2, (n3_l, n3_m) = us[:p], us[2 * p:3 * p], us[3 * p:]
    x1 = [zd * m - zn * a for m, a in zip(us[p:2 * p], w)]
    # b is over db = dt zd d^2, x2 over 2 db, and the grade-3 terms over
    # 12 db d (times zd for x3_m).
    b, db = contract_cleared(rows, (x1, zd * d), (w, d), p, dt)
    x2 = [2 * dt * zd * d * u + c for u, c in zip(n2, b)]
    x2w, t_x1x1w, t_x1ww = sum(map(mul, x2, w)), sum(map(mul, b, x1)), sum(map(mul, b, w))
    return (
        (x1, zd * d),
        (x2, 2 * db),
        (12 * db * zd * n3_m - zn * (3 * x2w - t_x1ww) - t_x1x1w, 12 * db * d * zd),
        (12 * db * n3_l - 3 * x2w + t_x1ww, 12 * db * d),
    )


def chart_decompose(U: NElem, z, T: SymCubic):
    """Solve exp(U) = exp(X) exp(w (x) p) with X in n_m and p = f1 + z f2.

    Returns (X, w) over Fractions, X an NElem whose f1 column is zero,
    for U and z rational; any other input raises TypeError.
    """
    if U.dim != T.dim:
        raise DimensionMismatchError(f"element dimension {U.dim}, tensor dimension {T.dim}")
    if not isinstance(z, (int, Fraction)):
        raise TypeError("chart_decompose takes a rational z")
    x1, x2, x3_m, x3_l = _chart_cleared(*cleared_form(U), z, T)
    x3 = Fraction(*x3_l), Fraction(*x3_m)
    return NElem((Q0,) * T.dim + from_cleared(*x1) + from_cleared(*x2) + x3), U.col(0)


def solve_line_coordinates(v, T: SymCubic):
    """Solve exp(v (x) f1) = exp(X(z)) exp(w(z) (x) p) exactly over Q[z].

    Returns chart_decompose's (X, w), every coordinate a QPoly in the
    line parameter z, X an NElem (a container of QPolys) whose f1 column
    is the zero QPoly.  On the line each has degree <= 2 in z, so
    it is interpolated from its values at z = 0, 1, -1.
    """
    p = T.dim
    if len(v) != p:
        raise ValueError(f"vector length {len(v)} != dim {p}")
    line = NElem.from_parts(p, col1=v)
    at = [chart_decompose(line, z, T)[0].coords for z in (0, 1, -1)]
    fit = [QPoly((f0, (f1 - f_1) / 2, (f1 + f_1) / 2 - f0)) for f0, f1, f_1 in zip(*at)]
    return NElem(tuple(fit)), tuple(map(QPoly.const, v))
