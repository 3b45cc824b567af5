"""Test-local reference rings and per-term kernels, against the package.

The package computes over the rationals only, and its vectors are
rational by construction.  RefQPoly and RefLinForm below hold one
Fraction per coefficient: RefQPoly is the polynomial ring in which the
chart solve is written for the line in z, and RefLinForm the linear
forms in formal coordinates, on which a map linear in its argument,
evaluated once on ``ref_generic_element``, gives its values on every
basis vector as coefficients.  RefElem holds an element of n over any
of these rings, with NElem's accessors and arithmetic.
``ref_polarize``, ``ref_dot``, ``ref_trilinear``, ``ref_bracket`` and
``ref_chart_decompose`` are the contractions, the bracket and the chart
solve written one ring operation per term over any of these rings.  The
tests here compare the package's line solve with the reference solve
over RefQPoly, and the package's rational contractions with the
per-term loops; NElem refuses the reference rings' coordinates, and
every kernel a sequence of them, with TypeError.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubicontact.bch import chart_decompose, solve_line_coordinates
from cubicontact.catalog import catalog_get
from cubicontact.contact import sample_chart_point
from cubicontact.cubic import SymCubic, polarize
from cubicontact.moment import MomentPoint, moment_of, moment_point_at
from cubicontact.nilpotent import NElem, basis_element
from cubicontact.sampling import SeededSampler
from cubicontact.scalars import HALF, Q0, Q1, TWELFTH, dot as _dot, frac


class RefElem:
    """An element of n in basis coordinates over any ring, with NElem's
    accessors and arithmetic: the container of the reference rings, whose
    coordinates NElem refuses.  It compares by coordinates with a RefElem
    or an NElem."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)

    @staticmethod
    def from_parts(p, col1=None, col2=None, n2=None, n3=None):
        coords = ()
        for part, size in ((col1, p), (col2, p), (n2, p), (n3, 2)):
            part = (Q0,) * size if part is None else tuple(part)
            assert len(part) == size
            coords += part
        return RefElem(coords)

    @property
    def dim(self):
        return (len(self.coords) - 2) // 3

    def col(self, a):
        p = self.dim
        return self.coords[a * p:(a + 1) * p]

    @property
    def n2(self):
        p = self.dim
        return self.coords[2 * p:3 * p]

    @property
    def n3(self):
        return self.coords[-2:]

    def __add__(self, other):
        return RefElem(a + b for a, b in zip(self.coords, other.coords, strict=True))

    def __sub__(self, other):
        return RefElem(a - b for a, b in zip(self.coords, other.coords, strict=True))

    def __neg__(self):
        return RefElem(-a for a in self.coords)

    def __mul__(self, s):
        return RefElem(a * s for a in self.coords)

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, (RefElem, NElem)):
            return NotImplemented
        return self.coords == other.coords


def as_ref(x):
    """x, an NElem or a RefElem, as a RefElem."""
    return RefElem(x.coords)


def map_scalars(x, f):
    """The RefElem with f applied to each coordinate of x."""
    return RefElem(map(f, x.coords))


# --- references: the Fraction-backed rings ----------------------------------

def _as_fraction(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return None


class RefQPoly:
    """Univariate polynomial over Q with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c):
        return RefQPoly((frac(c),))

    @staticmethod
    def x():
        return RefQPoly((Q0, Q1))

    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Q0

    def __call__(self, value):
        acc = Q0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, RefQPoly):
            n = max(len(self.coeffs), len(other.coeffs))
            return RefQPoly(self.coefficient(i) + other.coefficient(i) for i in range(n))
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return self + RefQPoly((f,))

    __radd__ = __add__

    def __neg__(self):
        return RefQPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = other if isinstance(other, RefQPoly) else None
        if o is None:
            f = _as_fraction(other)
            if f is None:
                return NotImplemented
            o = RefQPoly((f,))
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RefQPoly):
            if not self.coeffs or not other.coeffs:
                return RefQPoly()
            out = [Q0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return RefQPoly(out)
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return RefQPoly(tuple(c * f for c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return self * (Q1 / f)

    def __eq__(self, other):
        if isinstance(other, RefQPoly):
            return self.coeffs == other.coeffs
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return self.coeffs == (() if f == 0 else (f,))

    def __hash__(self):
        return hash(("RefQPoly", self.coeffs))


class RefLinForm:
    """Sparse linear form sum_i c_i a_i over Q in formal coordinates a_i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {} if coeffs is None else coeffs

    @staticmethod
    def coordinate(i):
        return RefLinForm({i: Q1})

    def coefficient(self, i):
        return self.coeffs.get(i, Q0)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if other:
                raise TypeError("cannot add a nonzero constant to a linear form")
            return self
        if not isinstance(other, RefLinForm):
            return NotImplemented
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            a = out.get(i)
            if a is None:
                out[i] = c
            else:
                s = a + c
                if s:
                    out[i] = s
                else:
                    del out[i]
        return RefLinForm(out)

    __radd__ = __add__

    def __neg__(self):
        return RefLinForm({i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RefLinForm):
            raise TypeError("product of two linear forms is not linear")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return RefLinForm()
        return RefLinForm({i: c * other for i, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, RefLinForm):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return not self.coeffs and not other
        return NotImplemented


def ref_generic_element(p):
    """sum_i a_i b_i over the basis of n, the a_i RefLinForm coordinates."""
    return RefElem(map(RefLinForm.coordinate, range(3 * p + 2)))


def kronecker_digits(v, z, den):
    """The matrix of a map L linear in its NElem argument, read off its
    value v = L(z) at the Kronecker point z: row k holds the balanced
    base-N digits of den v_k, each over den, N = z's coordinate 1.  den
    times every entry of L must be an integer of absolute value < N/2."""
    n, size = z.coords[1], len(z)
    rows = []
    for c in v.coords:
        m = den * c
        assert m.denominator == 1
        m, digits, j = m.numerator, [Q0] * size, 0
        while m:
            r = m % n
            r -= n if 2 * r > n else 0
            if r:
                digits[j] = Fraction(r, den)
            m, j = (m - r) // n, j + 1
        assert j <= size
        rows.append(digits)
    return rows


# --- references: the kernels one ring operation per term ---------------------

def ref_polarize(T, v1, v2):
    """polarize as one ring operation per term."""
    out = [Q0] * T.dim
    dt, rows = T.scaled()
    for a, row in zip(v1, rows):
        if not a:
            continue
        for j, k, c in row:
            b = v2[j]
            if b:
                out[k] = out[k] + Fraction(c, dt) * a * b
    return tuple(out)


def ref_dot(u, v):
    s = Q0
    for a, b in zip(u, v):
        if a and b:
            s = s + a * b
    return s


def ref_trilinear(T, v1, v2, v3):
    return ref_dot(ref_polarize(T, v1, v2), v3)


def ref_bracket(x, y, T):
    """The Lie bracket of n over any ring: B(x_f1, y_f2) - B(x_f2, y_f1)
    in n2 and x2 . y_col - y2 . x_col in n3."""
    b1, b2 = ref_polarize(T, x.col(0), y.col(1)), ref_polarize(T, x.col(1), y.col(0))
    n2 = tuple(a - b for a, b in zip(b1, b2))
    n3 = tuple(ref_dot(x.n2, y.col(a)) - ref_dot(y.n2, x.col(a)) for a in (0, 1))
    return RefElem((Q0,) * (2 * T.dim) + n2 + n3)


def ref_chart_decompose(U, z, T):
    """exp(U) = exp(X) exp(w (x) (f1 + z f2)) solved over any scalar ring
    holding U and z: one polarize and two trilinear values."""
    u_l, u_m = U.col(0), U.col(1)
    w = u_l
    x1 = tuple(m - z * l for m, l in zip(u_m, u_l))
    x2 = tuple(u + HALF * b for u, b in zip(U.n2, ref_polarize(T, x1, w)))
    x2w = ref_dot(x2, w)
    t_x1x1w = ref_trilinear(T, x1, x1, w)
    t_x1ww = ref_trilinear(T, x1, w, w)
    x3_l = U.n3[0] - HALF * x2w + TWELFTH * t_x1ww
    x3_m = U.n3[1] - HALF * (z * x2w) - TWELFTH * t_x1x1w + TWELFTH * (z * t_x1ww)
    return RefElem.from_parts(len(x1), col2=x1, n2=x2, n3=(x3_l, x3_m)), w


# --- drawn inputs -----------------------------------------------------------

BIG_DENOMINATORS = (1_000_003, 998_244_353, 1_000_000_007, 2_147_483_647, 999_999_937)
scalars = st.sampled_from((0, Fraction(0), -1, Fraction(-3))) | st.integers(-9, 9) | st.builds(
    Fraction, st.integers(-10 ** 12, 10 ** 12), st.sampled_from(BIG_DENOMINATORS)
)
nonzero_scalars = scalars.filter(bool)
coefficient_lists = st.lists(scalars, max_size=4)
form_dicts = st.dictionaries(st.integers(0, 5), nonzero_scalars, max_size=4)


def line_as_ref_qpolys(solution):
    """solve_line_coordinates's ((X0, X1, X2), w) as X(z) = X0 + z X1 +
    z^2 X2, a RefElem of RefQPolys in z, and w as constant RefQPolys."""
    xs, w = solution
    return RefElem(map(RefQPoly, zip(*(x.coords for x in xs)))), tuple(map(RefQPoly.const, w))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ZeroDivisionError) as exc:
        return type(exc)


def test_qpoly_and_linform_read_outs():
    """The reference rings read out the coefficients they hold: RefQPoly
    without trailing zeros, the zero polynomial of degree -1 and false."""
    p = RefQPoly((Fraction(1, 2), 0, Fraction(-3, 4), 0, 0))
    assert p.coeffs == (Fraction(1, 2), Q0, Fraction(-3, 4)) and p.degree() == 2
    assert p.coefficient(2) == Fraction(-3, 4) and p.coefficient(5) == p.coefficient(-1) == 0
    assert RefQPoly((0, 0)) == RefQPoly() == 0 and RefQPoly().degree() == -1
    assert not RefQPoly((0, 0)) and RefQPoly((0, 1)) and RefQPoly((-1,))
    assert RefQPoly.const("1/3") == RefQPoly((Fraction(1, 3),)) == Fraction(1, 3)
    f = RefLinForm({2: Fraction(2, 6), 5: Fraction(4)})
    assert f.coefficient(2) == Fraction(1, 3) and f.coefficient(3) == 0
    with pytest.raises(TypeError):
        RefQPoly.const(1.5)


# --- the chart code over each ring ---------------------------------------------

CHART_CUBICS = ("x3", "xyz", "det3", "pfaff6")


@pytest.mark.parametrize("name", CHART_CUBICS)
def test_line_solve_over_reference_qpoly(name):
    """The line solve's rational coefficients are those of the reference
    chart solve over RefQPoly in z; the line over RefQPoly is refused,
    by NElem and by chart_decompose as a z."""
    T = catalog_get(name).tensor()
    p = T.dim
    sampler = SeededSampler(64)
    for _ in range(3):
        v = sampler.vector(p)
        line = NElem.from_parts(p, col1=v)
        U = map_scalars(line, RefQPoly.const)
        for refused in (lambda: NElem(U.coords), lambda: chart_decompose(line, RefQPoly.x(), T)):
            with pytest.raises(TypeError):
                refused()
        chart, w = ref_chart_decompose(U, RefQPoly.x(), T)
        solution = solve_line_coordinates(v, T)
        xs, new_w = solution
        assert all(type(x) is NElem and not any(x.col(0)) for x in xs) and new_w == v
        assert chart.col(0) == (Q0,) * p and line_as_ref_qpolys(solution) == (chart, w)


@pytest.mark.parametrize("name", CHART_CUBICS)
def test_moment_map_over_reference_linform(name):
    """moment_of refuses the reference generic element, and moment_point_at
    is moment_of on each basis element, presented through the symplectic
    identifications."""
    T = catalog_get(name).tensor()
    p = T.dim
    sampler = SeededSampler(65)
    for _ in range(3):
        pt = sample_chart_point(sampler, p)
        with pytest.raises(TypeError):
            moment_of(pt, ref_generic_element(p), T)
        mu = [moment_of(pt, basis_element(p, i), T) for i in range(3 * p + 2)]
        want = MomentPoint.from_parts(
            phi1=tuple((-2 * mu[p + k], 2 * mu[k]) for k in range(p)),
            phi2=tuple(mu[2 * p + k] for k in range(p)),
            phi3=(mu[3 * p + 1], -mu[3 * p]),
        )
        assert moment_point_at(pt, T) == want


# --- the cleared-vector contractions against the per-term loops -----------

entry_values = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 7)))


@st.composite
def small_cubics(draw):
    p = draw(st.integers(1, 4))
    triples = [(i, j, k) for i in range(p) for j in range(i, p) for k in range(j, p)]
    chosen = draw(st.lists(st.sampled_from(triples), unique=True, max_size=6))
    return SymCubic(p, {t: draw(entry_values) for t in chosen})


zeros = st.sampled_from((0, Q0))
COORDINATES = {
    "fraction": st.builds(Fraction, st.integers(-20, 20), st.sampled_from((1, 2, 3, 1_000_003))),
    "int": st.integers(-5, 5),
    "linform": zeros | form_dicts.map(RefLinForm),
    "qpoly": zeros | coefficient_lists.map(RefQPoly),
}


def _rational(v):
    return all(type(c) in (int, Fraction) for c in v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    data=st.data(),
    T=small_cubics(),
    kinds=st.tuples(st.sampled_from(sorted(COORDINATES)), st.sampled_from(sorted(COORDINATES))),
)
def test_contractions_match_per_term_loops(data, T, kinds):
    """On rational vectors, ints, Fractions or both, polarize and dot
    give the per-term loops' Fractions; a vector with a coordinate of a
    reference ring, even a zero one, raises TypeError."""
    u, v = (
        data.draw(st.lists(COORDINATES[kind], min_size=T.dim, max_size=T.dim))
        for kind in kinds
    )
    for new, ref, args in ((polarize, ref_polarize, (T, u, v)), (_dot, ref_dot, (u, v))):
        got = _outcome(new, *args)
        if not (_rational(u) and _rational(v)):
            assert got is TypeError
            continue
        want = ref(*args)
        for g, w in zip(*((got, want) if new is polarize else ((got,), (want,)))):
            assert type(g) is Fraction and g == w
        if new is polarize:
            assert len(got) == T.dim


def test_contraction_type_errors():
    """polarize and dot refuse reference-ring coordinates with TypeError,
    where the per-term loops would compute a formal value or raise on a
    product of two linear forms; NElem refuses to hold them, and
    moment_of a generator that is not an NElem."""
    T = SymCubic(2, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(1, 2)})
    a0, a1 = RefLinForm.coordinate(0), RefLinForm.coordinate(1)
    z = RefQPoly.x()
    for u, v in (((a0, Q0), (Q1, Q1)), ((Q1, Q1), (z, Q1)), ((a0, a1), (a0, Q0))):
        for fn, args in ((polarize, (T, u, v)), (_dot, (u, v))):
            with pytest.raises(TypeError):
                fn(*args)
    assert ref_polarize(T, (a0, 0), (Q1, Q0)) == (a0, Q0) and ref_dot((a0, Q0), (Q1, a1)) == a0
    with pytest.raises(TypeError):
        ref_dot((a0, a1), (0, a1))
    x = NElem((Q1,) * 8)
    pt = sample_chart_point(SeededSampler(67), 2)
    for bad in (ref_generic_element(2), map_scalars(x, RefQPoly.const)):
        for fn, args in ((NElem, (bad.coords,)), (moment_of, (pt, bad, T))):
            with pytest.raises(TypeError):
                fn(*args)


def test_foreign_ring_gets_the_right_contractions():
    """A foreign ring's vectors are refused, and the per-term loops over
    it agree with the package's rational contractions term by term:
    B(u0 + u1 z, w0 + w1 z) = B(u0, w0) + (B(u0, w1) + B(u1, w0)) z +
    B(u1, w1) z^2, and so for dot."""
    T = catalog_get("det3").tensor().scale(Fraction(5, 7))
    p = T.dim
    sampler = SeededSampler(66)
    u0, u1, w0, w1 = (sampler.vector(p) for _ in range(4))
    U = [RefQPoly((a, b)) for a, b in zip(u0, u1)]
    W = [RefQPoly((a, b)) for a, b in zip(w0, w1)]
    for fn in (lambda: polarize(T, U, W), lambda: _dot(U, W)):
        with pytest.raises(TypeError):
            fn()
    pairs = ((u0, w0), (u0, w1), (u1, w0), (u1, w1))
    for parts, ref in (
        ([polarize(T, a, b) for a, b in pairs], ref_polarize(T, U, W)),
        ([(_dot(a, b),) for a, b in pairs], (ref_dot(U, W),)),
    ):
        for k, got in enumerate(ref):
            b00, b01, b10, b11 = (part[k] for part in parts)
            assert got == RefQPoly((b00, b01 + b10, b11))


def test_contractions_build_one_sum_per_coordinate(monkeypatch):
    # out[0] of polarize gathers 2p - 1 terms; a per-term loop builds a
    # Fraction for each term and each partial sum, O(p) per coordinate.
    # The kernel sums the terms in ints and builds one Fraction per output
    # coordinate.
    p = 200
    T = SymCubic(p, {(0, 0, k): Fraction(1, k + 1) for k in range(p)})
    forms = tuple(Fraction(1, i + 2) for i in range(p))
    numbers = tuple(Fraction(i + 1, 3) for i in range(p))
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", staticmethod(lambda cls, *a, **k: built.append(1) or new(cls, *a, **k))
    )
    for u, v in ((numbers, forms), (forms, numbers)):
        built.clear()
        out = polarize(T, u, v)
        assert len(built) == p and all(type(c) is Fraction and c for c in out)
        built.clear()
        assert type(_dot(u, v)) is Fraction and len(built) == 1
