"""Group law and chart solving for the nilpotent group N.

Because n is 3-step nilpotent the Campbell-Hausdorff series terminates:

    H(X, Y) = X + Y + 1/2 [X,Y] + 1/12 [X,[X,Y]] + 1/12 [Y,[Y,X]].

Group elements are carried in logarithmic coordinates, so multiplication
is H, the identity is 0 and inversion is negation.

Every double bracket below is [U, C] with C = [X, Y] in n2 + n3.  C has
no grade-1 part, so the only surviving term of the bracket is the n3
pairing v*(v) w: [U, C] is central, with coordinates -C2 . U_col(a).
One bracket per series is therefore enough.  With xy = [X, Y], the two
third-order terms of H combine by antisymmetry into 1/12 [X - Y, xy]:

    H(X, Y) = X + Y + 1/2 xy + 1/12 xy2 . (Y_col - X_col)   (last term in n3).

The differential of the exponential chart at X is

    e_X(Y) = Y + 1/2 [X,Y] + 1/12 [X,[X,Y]] = Y + 1/2 xy - 1/12 xy2 . X_col,

and since ad_X^3 = 0 its inverse is Z - 1/2 [X,Z] + 1/6 [X,[X,Z]], the
last term again central.  Its grade-3 line reads

    Y3 = Z3 - 1/2 [X1,Z2] - 1/2 [X2,Z1] + 1/6 [X1,[X1,Z1]],

valid for every input.  On the chart subspace, where X1 and Z1 share the
same W line and [X1, Z1] = 0, this agrees with the inversion display
that carries a 5/12 coefficient instead; the difference is exactly
1/4 [X1,[X1,Z1]] and a dedicated test records both behaviours.

bch, exp_diff and exp_diff_inv share one kernel with the coefficients
(1/2, 1/12), (1/2, 1/12) and (-1/2, 1/6).  It reads each element's
cleared form (``NElem.cleared``), computes [X, Y] and the central term
in ints from T's integer table (``SymCubic.scaled``), and returns its
result in that form, over one denominator, building no Fraction
(common-denominator arithmetic; Geddes, Czapor and Labahn, Algorithms
for Computer Algebra, 1992, ch. 9).  X and Y are rational, int or
Fraction coordinates, except that the series linear in Y also take a
Y of LinForms: the expdiff suite's round trip of the generic element,
with dict accumulations in place of int products.  Any other input
raises TypeError.

``chart_decompose`` factors exp(U) = exp(X) exp(w (x) p) with X in the
chart complement n_m = (V (x) f2) + V* + W and p = f1 + z f2, in ints
for a rational U and z (the tau check); moment linearizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .cubic import DimensionMismatchError, SymCubic
from .nilpotent import NElem, _check_same_dim
from .scalars import (
    HALF,
    Q0,
    QPoly,
    SIXTH,
    TWELFTH,
    LinForm,
    contract_cleared,
    from_cleared,
)


def _series(X: NElem, Y: NElem, T: SymCubic, h, t, with_x: bool) -> NElem:
    """[X +] Y + h [X, Y] + t [U, [X, Y]], U = X - Y with X, else U = X:
    the one kernel of bch, exp_diff and exp_diff_inv."""
    _check_same_dim(X, Y, T)
    cx, cy = X.cleared, Y.cleared
    if not (cx and cy) or cx[0] or cy[0] not in (None, LinForm) or (cy[0] and with_x):
        raise TypeError("rational elements only, or a LinForm Y of exp_diff or exp_diff_inv")
    if cy[0]:
        return _linear_series(cx[1], cx[2], *cy, T, h, t)
    (_rx, xs, dx), (_ry, ys, dy) = cx, cy
    dt, rows = T.scaled()
    p, w, dxy = T.dim, int(with_x), dx * dy
    xc, yc = (xs[:p], xs[p:2 * p]), (ys[:p], ys[p:2 * p])
    x2, y2 = xs[2 * p:3 * p], ys[2 * p:3 * p]
    # b = dt dx dy [X, Y]_2 = B(x_f1, y_f2) - B(x_f2, y_f1): one walk of T.
    b = [0] * p
    for a1, a2, row in zip(*xc, rows):
        if a1 or a2:
            for j, k, v in row:
                b[k] += v * (a1 * yc[1][j] - a2 * yc[0][j])
    # s = dx dy (w X + Y); dx dy [X, Y]_3 = x2 . y_col - y2 . x_col, and
    # t [U, [X, Y]] is central with coordinates -t b . U_col / (dt dx dy).
    s = [w * xa * dy + ya * dx for xa, ya in zip(xs, ys)]
    hn, hd, tn, td = h.numerator, h.denominator, t.numerator, t.denominator
    n2 = [hd * dt * sa + hn * ba for sa, ba in zip(s[2 * p:], b)]
    n3 = [
        td * dt * dxy * (hd * sa + hn * (sum(map(mul, x2, yca)) - sum(map(mul, y2, xca))))
        - tn * hd * (dy * sum(map(mul, b, xca)) - w * dx * sum(map(mul, b, yca)))
        for sa, xca, yca in zip(s[3 * p:], xc, yc)
    ]
    # Grades 1, 2, 3 are over dxy, hd dt dxy, hd td dt dxy^2: bring all to the last.
    c1, c2 = hd * td * dt * dxy, td * dxy
    return NElem.of_cleared(
        [c1 * a for a in s[:2 * p]] + [c2 * a for a in n2] + n3, c1 * dxy
    )


def _add_into(acc: dict, c: int, nums) -> None:
    """acc += c nums, nums an int dict of clear_denominators or 0."""
    if c and nums:
        for s, n in nums.items():
            acc[s] = acc.get(s, 0) + c * n


def _linear_series(xs, dx, ring, ys, dy, T: SymCubic, h, t) -> NElem:
    """Y + h [X, Y] + t [X, [X, Y]] from X's cleared ints (xs, dx) and
    Y's int dicts over the formal class ring (ys, dy): the walk of the
    Fraction path with w = 0, each product with a y numerator a dict
    accumulation.  The result is the cleared form over
    hd td dt dx^2 dy (one dy of the Fraction path's cancels)."""
    dt, rows = T.scaled()
    p = T.dim
    xc, yc = (xs[:p], xs[p:2 * p]), (ys[:p], ys[p:2 * p])
    x2, y2 = xs[2 * p:3 * p], ys[2 * p:3 * p]
    b = [{} for _ in range(p)]
    for a1, a2, row in zip(*xc, rows):
        if a1 or a2:
            for j, k, v in row:
                _add_into(b[k], v * a1, yc[1][j])
                _add_into(b[k], -v * a2, yc[0][j])
    hn, hd, tn, td = h.numerator, h.denominator, t.numerator, t.denominator
    c1 = hd * td * dt * dx * dx
    out = [{} for _ in range(3 * p + 2)]
    for acc, ya in zip(out, ys[:2 * p]):
        _add_into(acc, c1, ya)
    for acc, ya, ba in zip(out[2 * p:], y2, b):
        _add_into(acc, c1, ya)
        _add_into(acc, td * dx * hn, ba)
    # dx dy [X, Y]_3 = x2 . y_col - y2 . x_col; t [X, [X, Y]] is central,
    # -t b . x_col / (dt dx^2 dy).
    ch, ct = td * dt * dx * hn, -tn * hd
    for acc, ya, xca, yca in zip(out[3 * p:], ys[3 * p:], xc, yc):
        _add_into(acc, c1, ya)
        for xa, yb, x2a, y2a, ba in zip(xca, yca, x2, y2, b):
            _add_into(acc, ch * x2a, yb)
            _add_into(acc, -ch * xa, y2a)
            _add_into(acc, ct * xa, ba)
    return NElem.of_cleared(out, c1 * dy, ring)


def bch(X: NElem, Y: NElem, T: SymCubic) -> NElem:
    """Truncated Campbell-Hausdorff product H(X, Y), exact."""
    return _series(X, Y, T, HALF, TWELFTH, with_x=True)


@dataclass(frozen=True)
class GroupElem:
    """Element of N in log coordinates: the group element exp(log)."""

    log: NElem

    @staticmethod
    def identity(p: int) -> "GroupElem":
        return GroupElem(NElem.zero(p))


def group_mul(a: GroupElem, b: GroupElem, T: SymCubic) -> GroupElem:
    return GroupElem(bch(a.log, b.log, T))


def group_inv(a: GroupElem) -> GroupElem:
    return GroupElem(-a.log)


def exp_diff(X: NElem, Y: NElem, T: SymCubic) -> NElem:
    """e_X(Y) = Y + 1/2 [X,Y] + 1/12 [X,[X,Y]]; linear in Y."""
    return _series(X, Y, T, HALF, TWELFTH, with_x=False)


def exp_diff_inv(X: NElem, Z: NElem, T: SymCubic) -> NElem:
    """The exact Y with exp_diff(X, Y) = Z: Z - 1/2 [X,Z] + 1/6 [X,[X,Z]]."""
    return _series(X, Z, T, -HALF, SIXTH, with_x=False)


# --- the chart over the projective W line ------------------------------

@dataclass(frozen=True)
class ChartElem:
    """Element of the chart complement n_m = (V (x) f2) + V* + W.

    x1:   V coordinates of the (x) f2 part
    x2:   covector coordinates (grade 2)
    x3_m: W coordinate on f2 (the chart coordinate usually written X3^1)
    x3_l: W coordinate on f1 (X3^2)
    """

    x1: tuple
    x2: tuple
    x3_m: object
    x3_l: object

    @property
    def dim(self) -> int:
        return len(self.x1)

    @staticmethod
    def zero(p: int) -> "ChartElem":
        return ChartElem((Q0,) * p, (Q0,) * p, Q0, Q0)

    def to_nelem(self) -> NElem:
        return NElem.from_parts(
            self.dim, col2=self.x1, n2=self.x2, n3=(self.x3_l, self.x3_m)
        )


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
    _r, b, db = contract_cleared(rows, (None, x1, zd * d), (None, w, d), p, dt)
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

    Returns (ChartElem, w) over Fractions, for U and z rational; any
    other input raises TypeError.
    """
    if U.dim != T.dim:
        raise DimensionMismatchError(f"element dimension {U.dim}, tensor dimension {T.dim}")
    c = U.cleared
    if not (c and c[0] is None and isinstance(z, (int, Fraction))):
        raise TypeError("chart_decompose takes a rational element and z")
    x1, x2, x3_m, x3_l = _chart_cleared(c[1], c[2], z, T)
    chart = ChartElem(
        from_cleared(None, *x1), from_cleared(None, *x2), Fraction(*x3_m), Fraction(*x3_l)
    )
    return chart, U.col(0)


def solve_line_coordinates(v, T: SymCubic):
    """Solve exp(v (x) f1) = exp(X(z)) exp(w(z) (x) p) exactly over Q[z].

    Returns chart_decompose's (ChartElem, w), every coordinate a QPoly
    in the line parameter z.  On the line each has degree <= 2 in z, so
    it is interpolated from its values at z = 0, 1, -1.
    """
    p = T.dim
    if len(v) != p:
        raise ValueError(f"vector length {len(v)} != dim {p}")
    line = NElem.from_parts(p, col1=v)
    at = [chart_decompose(line, z, T)[0].to_nelem().coords for z in (0, 1, -1)]
    fit = [QPoly((f0, (f1 - f_1) / 2, (f1 + f_1) / 2 - f0)) for f0, f1, f_1 in zip(*at)]
    chart = ChartElem(tuple(fit[p:2 * p]), tuple(fit[2 * p:3 * p]), fit[-1], fit[-2])
    return chart, tuple(map(QPoly.const, v))
