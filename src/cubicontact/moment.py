"""Moment functionals on the chart and the moment variety equation.

For a group generator A, the moment value at a chart point is theta~
evaluated on the fundamental vector field of A, computed as the exact
t-derivative at 0 of the A-flow written in chart coordinates.  For
generators in n the flow fixes z and y and its derivative is polynomial,
so everything reduces to plain rational arithmetic; for sl(W) generators
the flow moves z and y, so it is written over polynomials in t (QPoly)
and the derivative is the t^1 coefficient.

The n* component of the moment map needs the moment value on all 3p + 2
basis elements of n.  A -> theta~(velocity(A)) is linear, so it is
evaluated once, on the generic element of n whose coordinates are formal
linear forms (nilpotent.generic_element): the coefficient of the i-th
coordinate in the result is exactly the value on the i-th basis element.
The flow code runs unchanged on these forms, and since they admit only
linear operations, any non-linear use of A would raise instead of
giving a wrong number.

The n-components are assembled into a point of the dual space through a
fixed identification of (V (x) W)* and W* with V* (x) W and W via the
symplectic form.  The identification on the (V (x) W)* block carries the
constant -2: with that normalization the assembled triples satisfy

    omega(phi1, phi3) = c(phi2, phi2, .)

exactly at every chart point, which is the moment variety equation (the
naive unscaled identification satisfies it only up to a factor 2, an
artifact of c(v,v,.) being the full polarization).

The one-form is contact.one_form_value; its orientation is the one in
which these fundamental vector fields are contact vector fields (see the
contact module).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, product

from .bch import chart_decompose, exp_diff
from .contact import ChartPoint, one_form_value, require_assumption
from .cubic import (
    SymCubic,
    cubic_hash,
    polarize,
    reduction,
)
from .nilpotent import NElem, SlWElem, generic_element
from .sampling import SeededSampler
from .scalars import HALF, Q0, QPoly, TWELFTH, dot


class FlowBasePointError(ValueError):
    """An sl(W) flow, re-expressed in the chart, moved the base point."""


@dataclass(frozen=True)
class MomentPoint:
    """Triple (phi1, phi2, phi3) in the dual of n.

    phi1: p rows of (f1 column, f2 column), an element of V* (x) W
    phi2: vector in V (the dual of n2)
    phi3: (f1, f2) coordinates of an element of W
    """

    phi1: tuple
    phi2: tuple
    phi3: tuple

    @property
    def dim(self) -> int:
        return len(self.phi2)


def moment_membership(m: MomentPoint, T: SymCubic) -> bool:
    """Exact test of omega(phi1, phi3) = c(phi2, phi2, .)."""
    p = T.dim
    if m.dim != p or len(m.phi1) != p:
        raise ValueError("dimension mismatch")
    # omega(phi3, f1) = -phi3_f2, omega(phi3, f2) = +phi3_f1.
    w1 = -m.phi3[1]
    w2 = m.phi3[0]
    rhs = polarize(T, m.phi2, m.phi2)
    for k in range(p):
        lhs = m.phi1[k][0] * w1 + m.phi1[k][1] * w2
        if lhs != rhs[k]:
            return False
    return True


def _velocity_from_n_generator(pt: ChartPoint, A: NElem, T: SymCubic):
    """Coordinate velocity of the left flow of exp(tA) at t = 0.

    The flow multiplies exp(tA) exp(X) and re-expresses the product in
    the chart at the same base line; to first order the moved element is
    X + t V with V = exp_diff(-X, A) = A + 1/2 [A, X] + 1/12 [X, [X, A]],
    and the chart re-decomposition is linearized by hand below (it is
    affine in the first-order part; c(x1, x1, v_l) = B(x1, v_l).x1 as in
    chart_decompose).  z and y do not move.
    """
    z = pt.z
    V = exp_diff(-pt.chart.to_nelem(), A, T)
    v_l = V.col(0)
    v_m = V.col(1)
    x1 = pt.chart.x1
    x2 = pt.chart.x2
    xdot1 = tuple(m - z * l for m, l in zip(v_m, v_l))
    b_x1_vl = polarize(T, x1, v_l)
    xdot2 = tuple(a + HALF * b for a, b in zip(V.n2, b_x1_vl))
    x2_vl = dot(x2, v_l)
    xdot3_l = V.n3[0] - HALF * x2_vl
    xdot3_m = V.n3[1] - HALF * z * x2_vl - TWELFTH * dot(b_x1_vl, x1)
    return (Q0, Q0, xdot3_m, xdot3_l) + xdot1 + xdot2


def _velocity_from_slw_generator(pt: ChartPoint, A: SlWElem, T: SymCubic):
    """Coordinate velocity of the sl(W) flow: the t^1 coefficients of the
    flow written over QPoly in t.

    The flow scales y by 1 + t(a + zb) and moves z to
    (z + t(c - za)) / (1 + t(a + zb)); only the first-order part
    z + t(c - 2za - z^2 b) of the quotient can reach a t^1 coefficient,
    because chart_decompose is polynomial in its arguments.
    """
    (a, b), (c, _d) = A.mat
    p = T.dim
    t = QPoly.x()
    z = pt.z
    zdot = c - 2 * z * a - z * z * b
    x1 = pt.chart.x1
    x3l, x3m = pt.chart.x3_l, pt.chart.x3_m
    U = NElem.from_parts(
        p,
        col1=tuple(t * (b * x) for x in x1),
        col2=tuple(x - t * (a * x) for x in x1),
        n2=tuple(QPoly.const(x) for x in pt.chart.x2),
        n3=(
            x3l + t * (a * x3l + b * x3m),
            x3m + t * (c * x3l - a * x3m),
        ),
    )
    chart, _w = chart_decompose(U, z + t * zdot, T)
    if chart.x3_m.coefficient(0) != x3m:
        raise FlowBasePointError("flow does not fix the base point coordinates")
    xdot1 = tuple(x.coefficient(1) for x in chart.x1)
    xdot2 = tuple(x.coefficient(1) for x in chart.x2)
    return (
        pt.y * (a + z * b), zdot,
        chart.x3_m.coefficient(1), chart.x3_l.coefficient(1),
    ) + xdot1 + xdot2


def moment_of(pt: ChartPoint, A, T: SymCubic) -> Fraction:
    """theta~ on the fundamental vector field of the generator A at pt.

    A may be an NElem, an SlWElem, or an (NElem, SlWElem) pair acting as
    the sum of the two generators.  An NElem whose coordinates are
    LinForms gives the LinForm of the values (see moment_point_at).
    """
    require_assumption(T)
    if pt.y == 0:
        raise ValueError("fiber coordinate y must be nonzero")
    if isinstance(A, tuple):
        an, aw = A
        return moment_of(pt, an, T) + moment_of(pt, aw, T)
    if isinstance(A, NElem):
        vel = _velocity_from_n_generator(pt, A, T)
    elif isinstance(A, SlWElem):
        vel = _velocity_from_slw_generator(pt, A, T)
    else:
        raise TypeError(f"unsupported generator {A!r}")
    return one_form_value(pt, vel)


def moment_point_at(pt: ChartPoint, T: SymCubic) -> MomentPoint:
    """Assemble the n* component of the moment map at pt.

    One moment_of call on the generic element of n gives the moment
    functional as a linear form whose coefficients are its values on the
    basis of n (exact, because A -> moment_of(pt, A, T) is linear).
    These are presented in V* (x) W and W coordinates through the
    symplectic identifications (the n1 block scaled by -2, see the
    module note).
    """
    p = T.dim
    mu = moment_of(pt, generic_element(p), T).coefficient
    phi1 = tuple((-2 * mu(p + k), 2 * mu(k)) for k in range(p))
    phi2 = tuple(mu(2 * p + k) for k in range(p))
    phi3 = (mu(3 * p + 1), -mu(3 * p))
    return MomentPoint(phi1=phi1, phi2=phi2, phi3=phi3)


# --- finite field smoothness probe --------------------------------------

@dataclass(frozen=True)
class ProbeVerdict:
    cubic_hash: str
    primes: tuple
    modes: tuple  # (q, 'exhaustive'|'structured+random') in probe order
    trials: tuple  # (q, count actually tested)
    witness: tuple | None  # (q, coordinates) or None

    @property
    def found(self) -> bool:
        return self.witness is not None

    @property
    def verdict_class(self) -> str:
        return "witness-found" if self.found else "none-found"

    def to_json(self) -> dict:
        return {
            "cubic_hash": self.cubic_hash,
            "primes": list(self.primes),
            "modes": {str(q): m for q, m in self.modes},
            "trials": {str(q): n for q, n in self.trials},
            "witness": (
                None
                if self.witness is None
                else {"q": self.witness[0], "v": list(self.witness[1])}
            ),
        }


def _quadric_data(ff):
    """Per-coordinate quadratic forms of B(v, v) mod q, for fast scans."""
    q = ff.modulus
    per_k = [[] for _ in range(ff.dim)]
    for (i, j, k), val in ff.entries:
        # Contribution of the symmetric entry to each output slot.
        for (a, b, c) in {(i, j, k), (i, k, j), (j, k, i)}:
            coeff = val if a == b else (2 * val) % q
            per_k[c].append((a, b, coeff))
    return per_k


def _is_quadric_zero(per_k, v, q) -> bool:
    for terms in per_k:
        acc = 0
        for a, b, coeff in terms:
            acc += coeff * v[a] * v[b]
        if acc % q:
            return False
    return True


def _structured_candidates(p: int, q: int):
    """e_i for every i, then e_i + e_j and e_i - e_j for i < j, mod q.

    The singular locus of a cubic often contains a coordinate vector or
    a sum or difference of two: the gradient of a Jordan norm is the
    sharp map, which vanishes on rank-one elements such as diag(1, 0, 0)
    (McCrimmon, A Taste of Jordan Algebras, 2004).  A random vector hits
    such a cone with probability about q^-codim, so these p^2 vectors
    are tested first.
    """
    for i in range(p):
        v = [0] * p
        v[i] = 1
        yield v
    for i in range(p):
        for j in range(i + 1, p):
            for sign in (1, q - 1):
                v = [0] * p
                v[i] = 1
                v[j] = sign
                yield v


def _random_candidates(p: int, q: int, budget: int, seed: int):
    """The nonzero vectors among `budget` seeded draws mod q."""
    sampler = SeededSampler(seed ^ (q << 20))
    for _ in range(budget):
        v = sampler.residue_vector(p, q)
        if any(v):
            yield v


def smoothness_probe(
    T: SymCubic, primes=(5, 7, 11, 13), budget: int = 10 ** 6, seed: int = 0
) -> ProbeVerdict:
    """Search for v != 0 over F_q, q >= 5, with B(v, v) = 0.

    Such a v is a singular point of the reduction mod q of the projective
    cubic hypersurface, since the gradient of c at v equals 3 B(v, v)
    under the full-sum normalization (zero mod 3 for every v: q >= 5).

    Per prime q, in mode 'exhaustive' when q^p <= budget, every nonzero
    vector is tested in lexicographic order.  Otherwise, in mode
    'structured+random', the p^2 vectors of _structured_candidates are
    tested first, then the nonzero ones among `budget` seeded random
    draws; the budget does not bound the p^2 structured candidates, so
    trials may exceed it.  trials counts the vectors tested.  A witness
    proves only that the reduction mod q is singular, not the
    hypersurface over Q: x^3 + 5 y^3 + z^3 is smooth over Q, yet e_y is
    a witness mod 5.  'none-found' is evidence of smoothness, not a
    proof.
    """
    p = T.dim
    modes = []
    trials = []
    witness = None
    for q in primes:
        per_k = _quadric_data(reduction(T, q))
        if q ** p <= budget:
            modes.append((q, "exhaustive"))
            candidates = islice(product(range(q), repeat=p), 1, None)
        else:
            modes.append((q, "structured+random"))
            candidates = chain(
                _structured_candidates(p, q),
                _random_candidates(p, q, budget, seed),
            )
        count = 0
        for v in candidates:
            count += 1
            if _is_quadric_zero(per_k, v, q):
                witness = (q, tuple(v))
                break
        trials.append((q, count))
        if witness is not None:
            break
    return ProbeVerdict(
        cubic_hash=cubic_hash(T),
        primes=tuple(primes),
        modes=tuple(modes),
        trials=tuple(trials),
        witness=witness,
    )


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
