"""QPoly and LinForm on int numerators against the Fraction rings they replaced.

RefQPoly and RefLinForm below are the earlier classes that held one
Fraction per coefficient.  Every ring operation of the int-backed
classes is compared with them on drawn inputs, and so are the chart code
results that rest on them, coefficient for coefficient: the package's
line solve, QPolys interpolated from three rational points, against the
per-term chart solve over RefQPoly, and the moment map on the generic
element over LinForm and over RefLinForm.  The contractions
``polarize`` and ``scalars.dot``, which run on the rings' cleared numerators,
are compared with the per-term loops they replaced.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from test_slw_flow import ref_chart_decompose

from cubicontact.bch import chart_decompose, solve_line_coordinates
from cubicontact.catalog import catalog_get
from cubicontact.contact import sample_chart_point
from cubicontact.cubic import SymCubic, polarize
from cubicontact.moment import MomentPoint, moment_of, moment_point_at
from cubicontact.nilpotent import NElem
from cubicontact.sampling import SeededSampler
from cubicontact.scalars import LinForm, Q0, Q1, QPoly, _FormalSum, dot as _dot, frac


def map_scalars(x, f):
    """The NElem with f applied to each coordinate of x."""
    return NElem(tuple(map(f, x.coords)))


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


# --- drawn inputs -----------------------------------------------------------

BIG_DENOMINATORS = (1_000_003, 998_244_353, 1_000_000_007, 2_147_483_647, 999_999_937)
scalars = st.sampled_from((0, Fraction(0), -1, Fraction(-3))) | st.integers(-9, 9) | st.builds(
    Fraction, st.integers(-10 ** 12, 10 ** 12), st.sampled_from(BIG_DENOMINATORS)
)
nonzero_scalars = scalars.filter(bool)
coefficient_lists = st.lists(scalars, max_size=4)
form_dicts = st.dictionaries(st.integers(0, 5), nonzero_scalars, max_size=4)


def _normalized(x, nums):
    """The storage invariant: positive den, gcd(den, *nums) = 1."""
    return x.den > 0 and gcd(x.den, *nums) == 1


def _same_qpoly(new, ref):
    assert isinstance(new, QPoly) and isinstance(ref, RefQPoly)
    assert new.degree() == ref.degree() and bool(new) == bool(ref)
    for k in range(-1, ref.degree() + 2):
        got = new.coefficient(k)
        assert type(got) is Fraction and got == ref.coefficient(k)
    assert _normalized(new, new.nums.values()) and all(new.nums.values())
    # Equal values have equal storage.
    rebuilt = QPoly(ref.coeffs)
    assert (new.nums, new.den) == (rebuilt.nums, rebuilt.den)
    assert new == rebuilt and hash(new) == hash(rebuilt)


def _same_linform(new, ref):
    assert isinstance(new, LinForm) and isinstance(ref, RefLinForm)
    assert dict(new.coeffs) == ref.coeffs and bool(new) == bool(ref)
    assert all(type(c) is Fraction for c in new.coeffs.values())
    for i in range(-1, 7):
        got = new.coefficient(i)
        assert type(got) is Fraction and got == ref.coefficient(i)
    assert _normalized(new, new.nums.values()) and all(new.nums.values())
    rebuilt = LinForm(ref.coeffs)
    assert (new.nums, new.den) == (rebuilt.nums, rebuilt.den) and new == rebuilt


JUNK = (0.5, "x", None)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ZeroDivisionError) as exc:
        return type(exc)


BINARY = (
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: b + a,
    lambda a, b: b - a,
    lambda a, b: a * b,
    lambda a, b: b * a,
    lambda a, b: a / b,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cs=coefficient_lists, ds=coefficient_lists, s=scalars, value=scalars)
def test_qpoly_matches_reference(cs, ds, s, value):
    a, b, A, B = QPoly(cs), QPoly(ds), RefQPoly(cs), RefQPoly(ds)
    _same_qpoly(a, A)
    _same_qpoly(-a, -A)
    for op in BINARY:
        for other, ref_other in ((b, B), (s, s)):
            got, want = _outcome(op, a, other), _outcome(op, A, ref_other)
            if isinstance(want, RefQPoly):
                _same_qpoly(got, want)
            else:
                assert got == want
    for op in BINARY:
        for junk in JUNK:
            assert _outcome(op, a, junk) is TypeError is _outcome(op, A, junk)
    assert (a == b) == (A == B) and (a != b) == (A != B)
    assert (a == s) == (A == s) and (s == a) == (s == A)
    assert a(value) == A(value) and type(a(value)) is Fraction
    assert QPoly.const(s) == QPoly((s,)) and QPoly.x() * s == QPoly((0, s))
    # The same value reached two ways has the same storage.
    for x in ((a + b) - b, (a * b + a) - a * b, (a * s) / s if s else a * 1):
        assert x == a and (x.nums, x.den) == (a.nums, a.den)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fs=form_dicts, gs=form_dicts, s=scalars)
def test_linform_matches_reference(fs, gs, s):
    f, g, F, G = LinForm(fs), LinForm(gs), RefLinForm(dict(fs)), RefLinForm(dict(gs))
    _same_linform(f, F)
    _same_linform(-f, -F)
    for op in BINARY:
        for other, ref_other in ((g, G), (s, s), (f, F)):
            got, want = _outcome(op, f, other), _outcome(op, F, ref_other)
            if isinstance(want, RefLinForm):
                _same_linform(got, want)
            else:
                assert got == want
    for op in BINARY:
        for junk in JUNK:
            assert _outcome(op, f, junk) is TypeError is _outcome(op, F, junk)
    assert (f == g) == (F == G) and (f != g) == (F != G)
    assert (f == s) == (F == s) and (s == f) == (s == F)
    for x in ((f + g) - g, s * f - s * f + f, (f * s) * (1 / Fraction(s)) if s else f + 0):
        assert x == f and (x.nums, x.den) == (f.nums, f.den)


def test_qpoly_and_linform_read_outs():
    p = QPoly((Fraction(1, 2), 0, Fraction(-3, 4), 0, 0))
    assert (p.nums, p.den) == ({0: 2, 2: -3}, 4) and p.degree() == 2
    assert QPoly((0, 0)) == QPoly() == 0 and (QPoly().nums, QPoly().den) == ({}, 1)
    f = LinForm({2: Fraction(2, 6), 5: 4})
    assert (f.nums, f.den) == ({2: 1, 5: 12}, 3)
    with pytest.raises(TypeError):
        f.coeffs[2] = Fraction(1)
    with pytest.raises(TypeError):
        QPoly((1.5,))


# --- the chart code over each ring ---------------------------------------------

CHART_CUBICS = ("x3", "xyz", "det3", "pfaff6")


def _ref_generic_element(p):
    return NElem(tuple(map(RefLinForm.coordinate, range(3 * p + 2))))


@pytest.mark.parametrize("name", CHART_CUBICS)
def test_line_solve_over_reference_qpoly(name):
    T = catalog_get(name).tensor()
    p = T.dim
    sampler = SeededSampler(64)
    for _ in range(3):
        v = sampler.vector(p)
        lift = RefQPoly.const
        U = map_scalars(
            NElem.from_parts(p, col1=tuple(lift(c) for c in v)),
            lambda s: s if isinstance(s, RefQPoly) else lift(s),
        )
        with pytest.raises(TypeError):
            chart_decompose(U, RefQPoly.x(), T)
        chart, w = ref_chart_decompose(U, RefQPoly.x(), T)
        new_chart, new_w = solve_line_coordinates(v, T)
        pairs = (
            list(zip(new_chart.x1, chart.x1)) + list(zip(new_chart.x2, chart.x2))
            + list(zip(new_w, w))
            + [(new_chart.x3_l, chart.x3_l), (new_chart.x3_m, chart.x3_m)]
        )
        for new, ref in pairs:
            _same_qpoly(new, ref)


@pytest.mark.parametrize("name", CHART_CUBICS)
def test_moment_map_over_reference_linform(name):
    T = catalog_get(name).tensor()
    p = T.dim
    sampler = SeededSampler(65)
    for _ in range(3):
        pt = sample_chart_point(sampler, p)
        mu = moment_of(pt, _ref_generic_element(p), T).coefficient
        want = MomentPoint(
            phi1=tuple((-2 * mu(p + k), 2 * mu(k)) for k in range(p)),
            phi2=tuple(mu(2 * p + k) for k in range(p)),
            phi3=(mu(3 * p + 1), -mu(3 * p)),
        )
        assert moment_point_at(pt, T) == want


# --- the cleared-vector contractions against the per-term loops -----------

def _ref_polarize(T, v1, v2):
    """polarize as one ring operation per term."""
    out = [Q0] * T.dim
    for a, row in zip(v1, T.grouped()):
        if not a:
            continue
        for j, k, val in row:
            b = v2[j]
            if b:
                out[k] = out[k] + val * a * b
    return tuple(out)


def _ref_dot(u, v):
    s = Q0
    for a, b in zip(u, v):
        if a and b:
            s = s + a * b
    return s


def _same_value(new, ref):
    """Same type and value and, for a formal sum, the same storage."""
    assert type(new) is type(ref) and new == ref
    if isinstance(ref, (QPoly, LinForm)):
        assert (new.nums, new.den) == (ref.nums, ref.den)


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
    "linform": zeros | form_dicts.map(LinForm),
    "qpoly": zeros | coefficient_lists.map(QPoly),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    data=st.data(),
    T=small_cubics(),
    kinds=st.tuples(st.sampled_from(sorted(COORDINATES)), st.sampled_from(sorted(COORDINATES))),
)
def test_contractions_match_per_term_loops(data, T, kinds):
    u, v = (
        data.draw(st.lists(COORDINATES[kind], min_size=T.dim, max_size=T.dim))
        for kind in kinds
    )
    for new, ref in ((polarize, _ref_polarize), (_dot, _ref_dot)):
        args = (T, u, v) if new is polarize else (u, v)
        got, want = _outcome(new, *args), _outcome(ref, *args)
        if want is TypeError or got is TypeError:
            assert got is want
        elif new is polarize:
            assert len(got) == T.dim
            for g, w in zip(got, want):
                _same_value(g, w)
        else:
            _same_value(got, want)


def test_contraction_type_errors():
    # out[0] = T(0,0,0) v1_0 v2_0 + T(1,1,0) v1_1 v2_1.
    T = SymCubic(2, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(1, 2)})
    a0, a1 = LinForm.coordinate(0), LinForm.coordinate(1)
    # A product of two linear forms.
    with pytest.raises(TypeError):
        polarize(T, (a0, a1), (a0, Q0))
    with pytest.raises(TypeError):
        _dot((a0, a1), (0, a1))
    # A nonzero constant in a linear-form result: a0 + 1/2, a0 + 1.
    with pytest.raises(TypeError):
        polarize(T, (a0, Q1), (Q1, Q1))
    with pytest.raises(TypeError):
        _dot((a0, Q1), (Q1, Q1))
    # Zeros mixed into formal vectors are skipped, as by the per-term loop.
    assert polarize(T, (a0, 0), (Q1, Q0)) == (a0, Q0) and _dot((a0, Q0), (Q1, a1)) == a0


def test_foreign_ring_gets_the_right_contractions():
    T = catalog_get("det3").tensor().scale(Fraction(5, 7))
    p = T.dim
    sampler = SeededSampler(66)
    u, w = sampler.vector(p), sampler.vector(p)
    new1, new2 = [QPoly((a, b)) for a, b in zip(u, w)], [QPoly((b, 0, a)) for a, b in zip(u, w)]
    ref1, ref2 = [RefQPoly((a, b)) for a, b in zip(u, w)], [RefQPoly((b, 0, a)) for a, b in zip(u, w)]
    pairs = list(zip(polarize(T, new1, new2), polarize(T, ref1, ref2)))
    pairs.append((_dot(new1, new2), _dot(ref1, ref2)))
    for new, ref in pairs:
        if isinstance(ref, RefQPoly):
            _same_qpoly(new, ref)
        else:
            _same_value(new, ref)


def test_contractions_build_one_sum_per_coordinate(monkeypatch):
    # out[0] of polarize gathers 2p - 1 terms; a per-term loop builds a
    # sum for each term and each partial sum, O(p) per coordinate.
    p = 200
    T = SymCubic(p, {(0, 0, k): Fraction(1, k + 1) for k in range(p)})
    forms = tuple(LinForm.coordinate(i) * Fraction(1, i + 2) for i in range(p))
    numbers = tuple(Fraction(i + 1, 3) for i in range(p))
    built = []
    store = _FormalSum._store
    monkeypatch.setattr(
        _FormalSum, "_store", lambda self, nums, den: built.append(1) or store(self, nums, den)
    )
    for u, v in ((numbers, forms), (forms, numbers)):
        built.clear()
        out = polarize(T, u, v)
        assert len(built) == p and all(type(c) is LinForm and c for c in out)
        built.clear()
        assert type(_dot(u, v)) is LinForm and len(built) == 1
