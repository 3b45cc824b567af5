"""Contact form in chart coordinates and the tangent map of lines.

Chart coordinates on the punctured line bundle are ordered

    (y, z, X3m, X3l, X1_1..X1_p, X2_1..X2_p),        2p + 4 in total,

with y != 0 the fiber coordinate and z the coordinate on the projective
W line.  A ChartPoint holds y, z and the chart element, an NElem of the
chart complement n_m whose f1 column is zero: X1 is its f2 column, X2
its n2 part and (X3l, X3m) its n3 part.  The pulled back one-form is

    theta~ = y (dX3m - z dX3l) + y/2 (X1.dX2 - X2.dX1),

the orientation in which the fundamental vector fields of the group
flows (moment module) are contact vector fields.  The published chart
display carries the opposite sign on the X2 terms; with it the moment
variety equation fails.

d(theta~) does not depend on the cubic.  Its skew matrix M, with
M[a][b] the coefficient of dx_a ^ dx_b in the coordinates of coords(),
has the closed form

    M[y][X3m] = 1,  M[y][X3l] = -z,  M[z][X3l] = -y,
    M[y][X1_i] = -X2_i / 2,  M[y][X2_i] = X1_i / 2,  M[X1_i][X2_i] = y,

skew-completed, all other entries 0: at most 6p + 6 nonzero entries.
Nondegeneracy is certified by exact determinants of 2d M, d the common
denominator of a seeded point's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .bch import _chart_cleared
from .cubic import SymCubic, assumption_holds, cubic_hash, polarize
from .linalg import mat_det
from .nilpotent import NElem
from .sampling import SeededSampler
from .scalars import (
    HALF,
    Q0,
    Q1,
    SIXTH,
    ClearedVector,
    cleared_form,
    contract_cleared,
    dot,
    frac,
)


class AssumptionError(ValueError):
    """The cubic violates the surjectivity condition on B."""


def require_assumption(T: SymCubic):
    if not assumption_holds(T):
        raise AssumptionError(
            "polarization map is not surjective; contact operations refuse"
        )


@dataclass(frozen=True)
class ChartPoint:
    """Point of the chart on the punctured line bundle (y != 0).

    chart: the chart element, an NElem of n_m whose f1 column is zero;
    a nonzero f1 column raises ValueError.
    """

    chart: NElem
    z: Fraction
    y: Fraction

    def __post_init__(self):
        if any(self.chart.col(0)):
            raise ValueError("a chart element has no f1 column")

    @property
    def dim(self) -> int:
        return self.chart.dim

    @staticmethod
    def base(p: int, y=Q1) -> "ChartPoint":
        return ChartPoint(NElem.zero(p), Q0, y)

    def coords(self):
        c, p = self.chart.coords, self.dim
        return (self.y, self.z, c[-1], c[-2]) + c[p:-2]

    @cached_property
    def cleared(self):
        """coords() as ints over their common denominator, (nums, den);
        TypeError unless all are rational."""
        return cleared_form(self.coords())


def one_form_coefficients(pt: ChartPoint) -> ClearedVector:
    """theta~'s coefficients (0, 0, y, -yz, -y/2 X2, y/2 X1) at pt, in
    the order of coords(), over 2 d^2 from pt's coordinates cleared
    over d."""
    p = pt.dim
    (y, z, _m, _l, *xs), d = pt.cleared
    theta = [0, 0, 2 * d * y, -2 * y * z] + [-y * e for e in xs[p:]] + [y * a for a in xs[:p]]
    return ClearedVector.of_cleared(theta, 2 * d * d)


def dtheta_matrix(pt: ChartPoint, T: SymCubic):
    """(rows, den): den M at pt as int dict rows for linalg, coordinates
    as in coords(), den = 2d for pt's coordinates cleared over d.  T
    fixes only the dimension.
    """
    p = T.dim
    if pt.dim != p:
        raise ValueError("dimension mismatch")
    (y, z, _m, _l, *xs), d = pt.cleared
    if y == 0:
        raise ValueError("fiber coordinate y must be nonzero")
    upper = [(0, 2, 2 * d), (0, 3, -2 * z), (1, 3, -2 * y)]
    for i, (x1_i, x2_i) in enumerate(zip(xs[:p], xs[p:])):
        upper += [(0, 4 + i, -x2_i), (0, 4 + p + i, x1_i), (4 + i, 4 + p + i, 2 * y)]
    mat = [{} for _ in range(2 * p + 4)]
    for a, b, entry in upper:
        if entry:  # skew-completed, zeros left out
            mat[a][b], mat[b][a] = entry, -entry
    return mat, 2 * d


def sample_chart_point(sampler: SeededSampler, p: int) -> ChartPoint:
    """Draws x1, x2, x3_m, x3_l, z and y, in that order."""
    x1, x2 = sampler.vector(p), sampler.vector(p)
    x3_m, x3_l = sampler.fraction(), sampler.fraction()
    chart = NElem((Q0,) * p + x1 + x2 + (x3_l, x3_m))
    return ChartPoint(chart, sampler.fraction(), sampler.nonzero_fraction())


@dataclass(frozen=True)
class NondegeneracyReport:
    cubic_hash: str
    p: int
    samples: int
    seed: int
    assumption_ok: bool
    determinants: tuple
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        nonzero = [abs(d) for d in self.determinants if d]
        min_digits = (
            len(str(min(nonzero).numerator)) if nonzero and self.ok else 0
        )
        return {
            "cubic_hash": self.cubic_hash,
            "p": self.p,
            "samples": self.samples,
            "seed": self.seed,
            "assumption_ok": self.assumption_ok,
            "min_abs_det_num_digits": min_digits,
            "failures": [list(f) for f in self.failures],
        }


def nondegeneracy_certificate(
    T: SymCubic, samples: int = 100, seed: int = 0
) -> NondegeneracyReport:
    """Exact determinants of d(theta~), det(den M) / den^(2p + 4) from
    dtheta_matrix, at seeded points with y != 0.

    Runs even when the surjectivity assumption fails (the certificate is
    then informational; the report carries the flag).
    """
    p = T.dim
    sampler = SeededSampler(seed)
    dets = []
    failures = []
    for s in range(samples):
        pt = sample_chart_point(sampler, p)
        rows, den = dtheta_matrix(pt, T)
        det = mat_det(rows) / den ** len(rows)
        dets.append(det)
        if det == 0:
            failures.append((s,) + pt.coords())
    return NondegeneracyReport(
        cubic_hash=cubic_hash(T),
        p=p,
        samples=samples,
        seed=seed,
        assumption_ok=assumption_holds(T),
        determinants=tuple(dets),
        failures=tuple(failures),
    )


# --- tangent map of lines ----------------------------------------------

def tau(v, T: SymCubic):
    """[v : B(v,v) : c(v) : 1] as a flat coordinate tuple of length 2p+2."""
    if len(v) != T.dim:
        raise ValueError("dimension mismatch")
    bvv = polarize(T, v, v)
    return tuple(v) + bvv + (dot(bvv, v), Q1)


def tau_line_constants(T: SymCubic):
    """(s1, s2, s3) = (-1, -1/2, 1/6) for every cubic: chart_decompose
    of exp(v (x) f1) at z has (x1, x2, x3_l) = z (s1 v, s2 B(v,v),
    s3 c(v)), as tau_matches_line_expansion checks."""
    require_assumption(T)
    return -Q1, -HALF, SIXTH


def _agrees(xs, d, s, ys, e, z) -> bool:
    """xs / d == z s ys / e coordinatewise, in ints."""
    a, b = z * s.numerator * d, s.denominator * e
    return all(x * b == a * y for x, y in zip(xs, ys))


def tau_matches_line_expansion(v, T: SymCubic) -> bool:
    """Line coordinates (x1, x2, x3_l) = z (s1 v, s2 B(v,v), s3 c(v)).

    chart_decompose's formulas make them polynomials of degree <= 2 in
    z, so agreeing at z = 0, 1, -1 (solve_line_coordinates's points) they
    agree as polynomials: deg x1 <= 1 and the degree-1 coefficients are
    as stated.  Runs in ints; the constants are read on each call.
    """
    require_assumption(T)
    s1, s2, s3 = tau_line_constants(T)
    p = T.dim
    if len(v) != p:
        raise ValueError(f"vector length {len(v)} != dim {p}")
    vs, dv = cleared_form(tuple(map(frac, v)))
    dt, rows = T.scaled()
    bvv, _d = contract_cleared(rows, (vs, dv), (vs, dv), p, dt)
    cv = sum(map(mul, bvv, vs))
    line = vs + [0] * (2 * p + 2)
    for z in (0, 1, -1):
        x1, x2, _x3_m, (x3_l, d3) = _chart_cleared(line, dv, z, T)
        if not (
            _agrees(*x1, s1, vs, dv, z)
            and _agrees(*x2, s2, bvv, dt * dv * dv, z)
            and _agrees((x3_l,), d3, s3, (cv,), dt * dv ** 3, z)
        ):
            return False
    return True
