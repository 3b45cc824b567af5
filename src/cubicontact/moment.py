"""Moment functionals on the chart and the moment variety equation.

The moment value of a group generator A at a chart point is theta~ on
the fundamental vector field of A (E. Lerman, Contact toric manifolds,
J. Symplectic Geom. 1, 2003).  A in n moves the chart element X along
exp_diff(-X, A) = A - 1/2 [X, A] + 1/12 [X, [X, A]], and the chart
coordinates along its image under J, the linearization of
chart_decompose at X (X has no f1 column, so the motion of z reaches no
chart coordinate at first order).  The value is the covector on n

    phi = xi - 1/2 xi o ad_X + 1/12 xi o ad_X o ad_X,   xi = theta~ o J,

theta~ pulled back through J and moved by the coadjoint action of
exp(-X) (A. A. Kirillov, Lectures on the Orbit Method, AMS 2004), built
on pt's cleared ints: xi in closed form (_pullback), each xi o ad_X by
nilpotent.bracket_transpose.  A in sl(W) moves X along act_slw(A, X),
and y and z, which theta~ does not read: its value is xi(act_slw(A, X)).

The n-components are assembled into a point of the dual space through a
fixed identification of (V (x) W)* and W* with V* (x) W and W via the
symplectic form.  The identification on the (V (x) W)* block carries the
constant -2: with that normalization the assembled triples satisfy

    omega(phi1, phi3) = c(phi2, phi2, .)

exactly at every chart point, which is the moment variety equation (the
naive unscaled identification satisfies it only up to a factor 2, an
artifact of c(v,v,.) being the full polarization).  The same point has
the closed form of moment_point_closed_form, which the moment suite
checks it against.  A MomentPoint is one ClearedVector of n*'s 3p + 2
coordinates, phi2, phi3, then phi1 row by row; both functions build it
from cleared ints, and the suite compares and tests the cleared forms.
theta~'s coefficients, contact.one_form_coefficients, are in the
orientation in which these fundamental vector fields are contact vector
fields (see the contact module).  boundary_report reads
the finite field smoothness probe, which lives with the cubic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .contact import ChartPoint, one_form_coefficients, require_assumption
from .cubic import DimensionMismatchError, SymCubic, cubic_hash, smoothness_probe
from .nilpotent import NElem, SlWElem, act_slw, bracket_transpose
from .scalars import ClearedVector, cleared_form, contract_cleared, dot


class MomentPoint(ClearedVector):
    """A point (phi1, phi2, phi3) of the dual of n, as its 3p + 2
    coordinates in the order phi2, phi3, then phi1 row by row:

    phi1: p rows of (f1 column, f2 column), an element of V* (x) W
    phi2: vector in V (the dual of n2)
    phi3: (f1, f2) coordinates of an element of W
    """

    @staticmethod
    def from_parts(phi1, phi2, phi3) -> "MomentPoint":
        return MomentPoint(tuple(phi2) + tuple(phi3) + tuple(chain.from_iterable(phi1)))

    @property
    def dim(self) -> int:
        return (len(self) - 2) // 3

    @property
    def phi1(self):
        c, p = self.coords, self.dim
        return tuple(zip(c[p + 2::2], c[p + 3::2]))

    @property
    def phi2(self):
        return self.coords[:self.dim]

    @property
    def phi3(self):
        p = self.dim
        return self.coords[p:p + 2]


def moment_membership(m: MomentPoint, T: SymCubic) -> bool:
    """Exact test of omega(phi1, phi3) = c(phi2, phi2, .).

    Both sides are compared as int vectors: m's cleared coordinates over
    d, omega(phi1, phi3) over d^2 and c(phi2, phi2, .) over dt d^2 from
    one contraction with T's integer table.
    """
    p = T.dim
    if len(m) != 3 * p + 2:
        raise ValueError("dimension mismatch")
    nums, d = cleared_form(m)
    phi2, (g1, g2), phi1 = nums[:p], nums[p:p + 2], nums[p + 2:]
    dt, rows = T.scaled()
    rhs, _d = contract_cleared(rows, (phi2, d), (phi2, d), p, dt)
    # omega(phi3, f1) = -phi3_f2, omega(phi3, f2) = +phi3_f1.
    return all(
        dt * (g1 * phi1[2 * k + 1] - g2 * phi1[2 * k]) == r for k, r in enumerate(rhs)
    )


def _refuse(pt: ChartPoint, T: SymCubic):
    if pt.dim != T.dim:
        raise DimensionMismatchError(f"point dimension {pt.dim}, tensor dimension {T.dim}")
    require_assumption(T)
    if pt.y == 0:
        raise ValueError("fiber coordinate y must be nonzero")


def _pullback(pt: ChartPoint, T: SymCubic):
    """xi = theta~ o J, a ClearedVector in basis order.  J is
    chart_decompose of X + t V linearized at t = 0, b = B(x1, v_l):

        x3_m' = V3_m - 1/2 z x2.v_l - 1/12 b.x1,   x1' = v_m - z v_l,
        x3_l' = V3_l - 1/2 x2.v_l,                 x2' = V2 + 1/2 b.

    Against theta~'s coefficients t, xi_col2 = t_X1, xi_n2 = t_X2, xi_n3
    = (t_l, t_m) and xi_col1 = -z t_X1 - 1/2 (t_l + z t_m) x2 + B(x1,
    1/2 t_X2 - t_m/12 x1), one walk of T's integer table: over 12 dt d^2
    dth, pt's coordinates being over d and t over dth.
    """
    p = pt.dim
    (_y, z, _m, _l, *xs), d = pt.cleared
    x1, x2 = xs[:p], xs[p:]
    (_ty, _tz, tm, tl, *ts), dth = one_form_coefficients(pt).cleared
    t1, t2 = ts[:p], ts[p:]
    dt, rows = T.scaled()
    w = [6 * d * a - tm * e for a, e in zip(t2, x1)]
    b, _db = contract_cleared(rows, (x1, 1), (w, 1), p)
    col1 = [bk - 6 * dt * (2 * d * z * a + (d * tl + z * tm) * e) for a, e, bk in zip(t1, x2, b)]
    c = 12 * dt * d * d
    return ClearedVector.of_cleared(col1 + [c * a for a in ts] + [c * tl, c * tm], c * dth)


def _moment_covector(pt: ChartPoint, T: SymCubic):
    """phi = xi - 1/2 xi o ad_X + 1/12 xi o ad_X o ad_X, a ClearedVector:
    the moment value on each basis element of n."""
    (_y, _z, m, l, *xs), d = pt.cleared
    X = [0] * pt.dim + xs + [l, m], d
    xi = _pullback(pt, T).cleared
    once = bracket_transpose(X, xi, T)
    twice = bracket_transpose(X, once, T)
    h = T.scaled()[0] * d  # once is over h den(xi), twice over h^2 den(xi)
    nums = [12 * h * h * a - 6 * h * b + e for a, b, e in zip(xi[0], once[0], twice[0])]
    return ClearedVector.of_cleared(nums, 12 * twice[1])


def moment_of(pt: ChartPoint, A, T: SymCubic) -> Fraction:
    """theta~ on the fundamental vector field of the generator A at pt:
    xi(act_slw(A, X)) for an SlWElem, phi(A) for an NElem, a Fraction.
    A's coordinates are rational; any other raises TypeError."""
    _refuse(pt, T)
    if isinstance(A, SlWElem):
        return dot(_pullback(pt, T), act_slw(A, pt.chart))
    if not isinstance(A, NElem):
        raise TypeError(f"unsupported generator {A!r}")
    if A.dim != T.dim:
        raise DimensionMismatchError(f"generator dimension {A.dim}, tensor dimension {T.dim}")
    return dot(_moment_covector(pt, T), A)


def moment_point_at(pt: ChartPoint, T: SymCubic) -> MomentPoint:
    """Assemble the n* component of the moment map at pt.

    phi's values on the basis of n are presented in V* (x) W and W
    coordinates through the symplectic identifications (the n1 block
    scaled by -2, see the module note), on phi's cleared numerators.
    """
    _refuse(pt, T)
    p = T.dim
    mu, den = _moment_covector(pt, T).cleared
    phi1 = chain.from_iterable((-2 * mu[p + k], 2 * mu[k]) for k in range(p))
    return MomentPoint.of_cleared([*mu[2 * p:3 * p], mu[3 * p + 1], -mu[3 * p], *phi1], den)


def moment_point_closed_form(pt: ChartPoint, T: SymCubic) -> MomentPoint:
    """The moment point at pt from its closed form, independent of phi.

    phi1_k = (2y X2_k, 2yz X2_k + y B(X1, X1)_k), phi2 = y X1,
    phi3 = (y, yz): over dt d^3 from pt's cleared ints, over d, and
    B(X1, X1), over dt d^2 from one contraction with T's integer table.
    """
    _refuse(pt, T)
    p = pt.dim
    (y, z, _m, _l, *xs), d = pt.cleared
    x1, x2 = xs[:p], xs[p:]
    dt, rows = T.scaled()
    b, _db = contract_cleared(rows, (x1, d), (x1, d), p, dt)
    yd = y * dt * d  # phi2 and the f1 column of phi1 are over d^2
    phi1 = chain.from_iterable((2 * yd * e, y * (2 * dt * z * e + bk)) for e, bk in zip(x2, b))
    return MomentPoint.of_cleared([*(yd * a for a in x1), yd * d, yd * z, *phi1], dt * d ** 3)


def boundary_report(
    T: SymCubic, primes=(5, 7, 11, 13), budget: int = 10 ** 6, seed: int = 0
) -> dict:
    """Codimension bookkeeping for the boundary of the moment image.

    The image has dimension 2p + 2; its boundary forces phi3 = 0 and
    then c(phi2, phi2, .) = 0.  When the probe finds no singular-point
    witness the boundary parameters reduce to the 2p of phi1 and the
    codimension >= 2 argument is supported (not proved: 'none-found' is
    evidence of smoothness only).  A witness shows only that a reduction
    mod q is singular; the argument is then reported inapplicable,
    although the hypersurface over Q may still be smooth.
    """
    p = T.dim
    verdict = smoothness_probe(T, primes=primes, budget=budget, seed=seed)
    return {
        "cubic_hash": cubic_hash(T),
        "p": p,
        "dim_moment_image": 2 * p + 2,
        "boundary_param_count": 2 * p,
        "probe": verdict.to_json(),
        "codim_ge2_supported": not verdict.found,
        "inapplicable": verdict.found,
    }
