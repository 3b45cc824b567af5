"""The closed-form group law against the series it replaced.

bch, exp_diff, exp_diff_inv, chart_decompose and the moment map
rest on two facts: a double bracket [U, [X, Y]] is central, and
c(x, y, w) = B(x, w).y for the symmetric trilinear form.  The
references below, and ``test_scalar_references.ref_chart_decompose``,
are the bracket-by-bracket and trilinear-by-trilinear versions they
replaced, one ring operation per term on the test-local kernels
(``ref_bracket``, ``ref_polarize``, ``ref_trilinear``, ``ref_dot``).
Each pair is compared exactly on every catalog cubic and the extracted
G2 and F4 cubics, on Fractions; the series linear in Y are compared at
the Kronecker point, digit by digit, with the references on the generic
element of RefLinForms.  solve_line_coordinates, interpolated from
chart_decompose at three rational z, is compared with the reference
solved over RefQPoly in z, and with its closed form.  The references
run on RefElems; the package takes rational input only: NElem refuses
RefQPoly, RefLinForm and first-order jets in t (the hand-built degree-1
RefQPoly inputs of the ``over_jet`` cases, and ``test_slw_flow.Jet``),
and so do chart_decompose as a z and the moment value as a generator,
with TypeError.
"""

import importlib
import sys
from fractions import Fraction

import pytest
from conftest import chart_elem
from hypothesis import assume, given, settings, strategies as st
from test_scalar_references import (
    RefElem,
    RefLinForm,
    RefQPoly,
    as_ref,
    kronecker_digits,
    line_as_ref_qpolys,
    map_scalars,
    ref_bracket,
    ref_chart_decompose,
    ref_dot,
    ref_generic_element,
    ref_polarize,
    ref_trilinear,
)
from test_slw_flow import (
    GENERATORS as SLW_GENERATORS,
    Jet,
    ref_one_form_value,
    ref_velocity_from_slw_generator,
)

from cubicontact import moment
from cubicontact.bch import (
    bch,
    chart_decompose,
    exp_diff,
    exp_diff_inv,
    roundtrip_bound,
    solve_line_coordinates,
)
from cubicontact.catalog import catalog_get, catalog_list
from cubicontact.contact import ChartPoint, one_form_coefficients, sample_chart_point
from cubicontact.cubic import SymCubic, assumption_holds, cubic_eval, polarize
from cubicontact.extraction import algebra_for, extraction
from cubicontact.moment import MomentPoint
from cubicontact.nilpotent import (
    NElem,
    basis_element,
    bracket,
    bracket_transpose,
    kronecker_points,
)
from cubicontact.reports import RunConfig
from cubicontact.sampling import SeededSampler
from cubicontact.scalars import HALF, Q0, SIXTH, TWELFTH, ClearedVector, dot as _dot
from cubicontact.verify import SUITES, run_expdiff_suite, run_group_suite, run_verification

bch_module = importlib.import_module("cubicontact.bch")
contact = importlib.import_module("cubicontact.contact")
nilpotent = importlib.import_module("cubicontact.nilpotent")
scalars = importlib.import_module("cubicontact.scalars")

CUBICS = tuple(e.name for e in catalog_list()) + ("extracted-G2", "extracted-F4")


def _cubic(name):
    if name.startswith("extracted-"):
        return extraction(algebra_for(name[-2], int(name[-1]))).tensor
    return catalog_get(name).tensor()


# --- references: the series as written before the closed forms -----------

def ref_bch(X, Y, T):
    X, Y = as_ref(X), as_ref(Y)
    xy = ref_bracket(X, Y, T)
    term3 = TWELFTH * ref_bracket(X, xy, T)
    term4 = TWELFTH * ref_bracket(Y, ref_bracket(Y, X, T), T)
    return X + Y + HALF * xy + term3 + term4


def ref_exp_diff(X, Y, T):
    Y = as_ref(Y)
    xy = ref_bracket(X, Y, T)
    return Y + HALF * xy + TWELFTH * ref_bracket(X, xy, T)


def ref_exp_diff_inv(X, Z, T):
    """Grade-by-grade back substitution."""
    p, parts = T.dim, RefElem.from_parts
    y1 = parts(p, col1=Z.col(0), col2=Z.col(1))
    x1 = parts(p, col1=X.col(0), col2=X.col(1))
    b11 = ref_bracket(x1, y1, T)
    y2 = tuple(a - HALF * b for a, b in zip(Z.n2, b11.n2))
    y12 = parts(p, col1=Z.col(0), col2=Z.col(1), n2=y2)
    x12 = parts(p, col1=X.col(0), col2=X.col(1), n2=X.n2)
    corr = HALF * ref_bracket(x12, y12, T) + TWELFTH * ref_bracket(x1, b11, T)
    y3 = tuple(a - b for a, b in zip(Z.n3, corr.n3))
    return parts(p, col1=Z.col(0), col2=Z.col(1), n2=y2, n3=y3)


def ref_velocity(pt, A, T):
    """The hand-written first-order series of the n-generator flow."""
    X = pt.chart
    V = as_ref(A) + HALF * ref_bracket(A, X, T) + TWELFTH * ref_bracket(X, ref_bracket(X, A, T), T)
    return ref_chart_velocity(pt, V, T)


def ref_chart_velocity(pt, V, T):
    """The chart velocity as the chart element moves along V."""
    z = pt.z
    v_l, v_m = V.col(0), V.col(1)
    x1, x2 = pt.chart.col(1), pt.chart.n2
    xdot1 = tuple(m - z * l for m, l in zip(v_m, v_l))
    xdot2 = tuple(a + HALF * b for a, b in zip(V.n2, ref_polarize(T, x1, v_l)))
    x2_vl = ref_dot(x2, v_l)
    xdot3_l = V.n3[0] - HALF * x2_vl
    xdot3_m = V.n3[1] - HALF * z * x2_vl - TWELFTH * ref_trilinear(T, x1, x1, v_l)
    return (Q0, Q0, xdot3_m, xdot3_l) + xdot1 + xdot2


# --- inputs over each ring -------------------------------------------------

def _sample_nelem(sampler, p):
    return NElem.from_parts(
        p,
        col1=sampler.vector(p),
        col2=sampler.vector(p),
        n2=sampler.vector(p),
        n3=(sampler.fraction(), sampler.fraction()),
    )


def _fraction_inputs(T, sampler):
    p = T.dim
    return _sample_nelem(sampler, p), _sample_nelem(sampler, p), sampler.fraction()


def _qpoly_inputs(T, sampler):
    """The line solver's data over RefQPoly in z: chart element, w (x) p,
    line element, z."""
    p = T.dim
    v = sampler.vector(p)
    chart, w = line_as_ref_qpolys(solve_line_coordinates(v, T))
    zvar = RefQPoly.x()
    wp = RefElem.from_parts(p, col1=w, col2=tuple(zvar * wi for wi in w))
    line = RefElem.from_parts(p, col1=tuple(RefQPoly.const(c) for c in v))
    return chart, wp, line, zvar


def _jet_inputs(T, sampler):
    """Degree-1 elements over RefQPoly in t: a chart point moved along two
    sl(W) generators [[a, b], [c, -a]], and z moved along the first."""
    pt = sample_chart_point(sampler, T.dim)
    t = RefQPoly.x()
    x1, (x3l, x3m) = pt.chart.col(1), pt.chart.n3
    X, Y = (
        RefElem.from_parts(
            T.dim,
            col1=tuple(t * (b * x) for x in x1),
            col2=tuple(x - t * (a * x) for x in x1),
            n2=tuple(RefQPoly.const(x) for x in pt.chart.n2),
            n3=(x3l + t * (a * x3l + b * x3m), x3m + t * (c * x3l - a * x3m)),
        )
        for a, b, c in ((1, 2, 3), (-2, 1, 5))
    )
    z = pt.z + t * (3 - 2 * pt.z - 2 * pt.z * pt.z)
    return X, Y, z


def _upper(x):
    """The n2 + n3 part of x, an NElem or a RefElem."""
    return type(x).from_parts(x.dim, n2=x.n2, n3=x.n3)


def _assert_group_law_same(X, Y, T):
    assert bch(X, Y, T) == ref_bch(X, Y, T)
    assert bch(Y, X, T) == ref_bch(Y, X, T)
    assert exp_diff(X, Y, T) == ref_exp_diff(X, Y, T)
    assert exp_diff_inv(X, Y, T) == ref_exp_diff_inv(X, Y, T)


def _assert_refused(X, Y, z, T):
    """X and Y, each an NElem or a RefElem, and z, a rational or a
    reference ring's scalar: NElem refuses the coordinates of each
    RefElem, and chart_decompose z unless it is rational, with
    TypeError."""
    for U in (X, Y):
        if isinstance(U, RefElem):
            with pytest.raises(TypeError):
                NElem(U.coords)
    if not isinstance(z, (int, Fraction)):
        with pytest.raises(TypeError):
            chart_decompose(NElem.zero(T.dim), z, T)


def _assert_point_refused(pt, T):
    """pt with a RefQPoly z: one_form_coefficients and moment_point_at
    raise TypeError; its chart element cannot hold a RefQPoly."""
    x3_l, x3_m = pt.chart.n3
    with pytest.raises(TypeError):
        chart_elem(pt.chart.col(1), pt.chart.n2, RefQPoly.x() + x3_m, x3_l)
    bad = ChartPoint(pt.chart, RefQPoly.x(), pt.y)
    for fn in (one_form_coefficients, lambda q: moment.moment_point_at(q, T)):
        with pytest.raises(TypeError):
            fn(bad)


@pytest.mark.parametrize("name", CUBICS)
def test_closed_forms_match_references_over_fraction(name):
    T = _cubic(name)
    sampler = SeededSampler(60)
    for _ in range(3):
        X, Y, z = _fraction_inputs(T, sampler)
        _assert_group_law_same(X, Y, T)
        assert chart_decompose(X, z, T) == ref_chart_decompose(X, z, T)
        pt = sample_chart_point(sampler, T.dim)
        assert moment.moment_of(pt, X, T) == ref_one_form_value(pt, ref_velocity(pt, X, T))


@pytest.mark.parametrize("name", CUBICS)
def test_closed_forms_match_references_over_qpoly(name):
    """solve_line_coordinates's coefficients are the reference chart
    solve over RefQPoly in z, on the zero vector and seeded ones;
    RefQPoly elements, a RefQPoly z and a RefQPoly generator are
    refused."""
    T = _cubic(name)
    p = T.dim
    sampler = SeededSampler(61)
    for v in [(Q0,) * p] + [sampler.vector(p) for _ in range(3)]:
        line = RefElem.from_parts(p, col1=tuple(RefQPoly.const(c) for c in v))
        want = ref_chart_decompose(line, RefQPoly.x(), T)
        assert line_as_ref_qpolys(solve_line_coordinates(v, T)) == want
    chart, wp, line, zvar = _qpoly_inputs(T, sampler)
    _assert_refused(chart, wp, zvar, T)
    _assert_refused(chart, line, zvar, T)
    X, _Y, _z = _fraction_inputs(T, sampler)
    _assert_refused(X, wp, zvar, T)
    _assert_refused(X, map_scalars(X, RefQPoly.const), RefQPoly.x(), T)
    pt = sample_chart_point(sampler, p)
    with pytest.raises(TypeError):
        moment.moment_of(pt, chart, T)
    _assert_point_refused(pt, T)


def _assert_line_closed_form(v, T):
    """The line solve in closed form: X0 = 0; X1 has f2 column -v, n2
    -1/2 B(v, v) and n3 (c(v)/6, 0); X2 is c(v)/12 f2 in n3 alone."""
    (x0, x1, x2), w = solve_line_coordinates(v, T)
    p, cv = T.dim, cubic_eval(T, v)
    bvv = polarize(T, v, v)
    assert x0 == NElem.zero(p) and w == tuple(v)
    assert x1 == NElem.from_parts(p, col2=[-a for a in v], n2=[-HALF * b for b in bvv], n3=(cv / 6, 0))
    assert x2 == NElem.from_parts(p, n3=(0, cv / 12))


@pytest.mark.parametrize("name", [e.name for e in catalog_list()])
def test_line_solution_closed_form_on_catalog(name):
    T = catalog_get(name).tensor()
    sampler = SeededSampler(68)
    for v in [(Q0,) * T.dim] + [sampler.vector(T.dim) for _ in range(3)]:
        _assert_line_closed_form(v, T)


def _linform_rows(v, size):
    """The coefficients of a vector of RefLinForms (or rational zeros),
    one row per coordinate."""
    rows = []
    for c in v:
        if isinstance(c, RefLinForm):
            rows.append([c.coefficient(j) for j in range(size)])
        else:
            assert c == 0
            rows.append([Q0] * size)
    return rows


# The series coefficients (h, t) of exp_diff and exp_diff_inv: each times
# hd td dt dx^2 has integer entries.
SERIES_COEFFICIENTS = (
    (exp_diff, ref_exp_diff, (HALF, TWELFTH)),
    (exp_diff_inv, ref_exp_diff_inv, (-HALF, SIXTH)),
)


@pytest.mark.parametrize("name", CUBICS)
def test_closed_forms_match_references_over_linform(name):
    """exp_diff and exp_diff_inv are linear in Y: their values at the
    Kronecker point, read digit by digit over hd td dt dx^2, are the
    reference series on the generic element of RefLinForms, which the
    package's NElem refuses."""
    T = _cubic(name)
    p = T.dim
    size = 3 * p + 2
    sampler = SeededSampler(62)
    X, _Y, z = _fraction_inputs(T, sampler)
    generic = ref_generic_element(p)
    # roundtrip_bound bounds each series' entries too.
    (zk,) = kronecker_points(p, roundtrip_bound(X, T))
    for fn, ref, (h, t) in SERIES_COEFFICIENTS:
        den = h.denominator * t.denominator * T.scaled()[0] * X.cleared[1] ** 2
        want = _linform_rows(ref(X, generic, T).coords, size)
        assert kronecker_digits(fn(X, zk, T), zk, den) == want
    # bch and chart_decompose are not linear: the references refuse forms
    # where a product of two forms or a form plus a constant would occur,
    # and compute where the result is linear; the package holds no form.
    upper = _upper(generic)
    for ref, args in ((ref_bch, (generic, generic)), (ref_bch, (X, upper)), (ref_chart_decompose, (generic, z))):
        with pytest.raises(TypeError):
            ref(*args, T)
    zero = NElem.zero(p)
    for args in ((generic, zero), (zero, generic), (upper, 3 * upper)):
        ref_bch(*args, T)
    _assert_refused(generic, upper, z, T)
    # The moment value on each basis element is the reference's
    # coefficient on the generic element.
    pt = sample_chart_point(sampler, p)
    ref_form = ref_one_form_value(pt, ref_velocity(pt, generic, T))
    assert [moment.moment_of(pt, basis_element(p, j), T) for j in range(size)] == _linform_rows(
        (ref_form,), size
    )[0]


@pytest.mark.parametrize("name", CUBICS)
def test_closed_forms_match_references_over_jet(name):
    """Jets, as RefQPoly in t and as the Jet ring, are refused by NElem,
    chart_decompose, polarize, dot and the moment value."""
    T = _cubic(name)
    p = T.dim
    sampler = SeededSampler(63)
    X, Y, z = _jet_inputs(T, sampler)
    _assert_refused(X, Y, z, T)
    A, B, w = _fraction_inputs(T, sampler)
    jets = map_scalars(A, lambda a: Jet(a, 1)), map_scalars(B, Jet)
    _assert_refused(*jets, Jet(w, 1), T)
    _assert_refused(A, jets[0], Jet(w), T)
    pt = sample_chart_point(sampler, p)
    for jet in (X, jets[0]):
        for fn in (
            lambda: polarize(T, jet.col(0), A.col(1)),
            lambda: polarize(T, A.col(0), jet.col(1)),
            lambda: _dot(jet.n2, A.col(0)),
            lambda: NElem(jet.coords),
            lambda: moment.moment_of(pt, jet, T),
        ):
            with pytest.raises(TypeError):
                fn()


# --- one tensor walk per closed form ---------------------------------------

def _count(monkeypatch, fn_name, modules):
    """The arguments of each call of fn_name through each module's
    binding of it."""
    calls = []
    for mod in modules:
        real = getattr(mod, fn_name, None)
        if real is None:
            continue

        def counted(*args, _real=real):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(mod, fn_name, counted)
    return calls


def test_series_and_moment_map_make_no_bracket(monkeypatch):
    """bch imports no bracket, polarize or dot: each series runs on
    integers, on Fraction inputs and on the Kronecker point, and the
    moment map makes no bracket on the Kronecker point and a Fraction
    generator."""
    assert not {"bracket", "polarize", "dot"} & set(vars(bch_module))
    T = catalog_get("det3").tensor()
    sampler = SeededSampler(64)
    X, Y, z = _fraction_inputs(T, sampler)
    pt = sample_chart_point(sampler, T.dim)
    (zk,) = kronecker_points(T.dim, roundtrip_bound(X, T))
    brackets = _count(monkeypatch, "bracket", (moment, nilpotent))
    for fn in (bch, exp_diff, exp_diff_inv):
        fn(X, Y, T)
    values = [moment.moment_of(pt, A, T) for A in (zk, Y)]
    exp_diff_inv(X, zk, T)
    assert not brackets
    assert values == [ref_one_form_value(pt, ref_velocity(pt, A, T)) for A in (zk, Y)]


def test_verify_runs_no_ring_generic_path(monkeypatch):
    """Every suite of run_verification on det3 calls neither
    nilpotent.bracket nor chart_decompose (the tau check calls its
    kernel), and calls contract_cleared on cleared forms from the walk
    owners below only: the group law's series and u o ad_x contract with
    n's stored table, so no per-term path comes back into the verify
    loop unseen."""
    T = catalog_get("det3").tensor()
    modules = [m for name, m in sys.modules.items() if name.startswith("cubicontact.")]
    callers = {"bracket": [], "chart_decompose": [], "contract_cleared": []}
    forms = []

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            callers[name].append(sys._getframe(1).f_code.co_name)
            if name == "contract_cleared":
                forms.extend(args[1:3])
            return real(*args)

        for mod in modules:
            if vars(mod).get(name) is real:
                monkeypatch.setattr(mod, name, counted)

    spy(nilpotent, "bracket")
    spy(bch_module, "chart_decompose")
    spy(scalars, "contract_cleared")
    report = run_verification(T, tuple(SUITES), RunConfig(seed=7, samples=3, probe_budget=1000))
    assert report.all_pass and len(report.checks) == len(SUITES)
    assert not callers["bracket"] and not callers["chart_decompose"]
    assert set(callers["contract_cleared"]) == {
        "_series", "bracket_transpose", "_pullback", "_chart_cleared",
        "tau_matches_line_expansion", "moment_membership", "moment_point_closed_form",
    }
    assert all(type(d) is int and all(type(n) is int for n in nums) for nums, d in forms)


def test_rational_series_keep_the_cleared_form(monkeypatch):
    """On Fractions the group law reads and returns NElem's cleared form:
    the group suite and the expdiff suite, its Kronecker round trip
    included, build no rational coordinates, and coordinates are built
    on their first read only.

    moment_point_at clears pt's coordinates once and runs on their
    ints: it calls neither exp_diff nor kronecker_points and rebuilds no
    coordinates."""
    T = catalog_get("det3").tensor()
    cfg = RunConfig(seed=7, samples=3)
    # ClearedVector, and with it NElem, clears and rebuilds through scalars.
    rebuilt = _count(monkeypatch, "from_cleared", (scalars, moment))
    cleared = _count(monkeypatch, "clear_denominators", (scalars, contact, moment))
    assert run_group_suite(T, cfg)[0] == "pass" and not rebuilt
    assert run_expdiff_suite(T, cfg)[0] == "pass" and not rebuilt
    pt = sample_chart_point(SeededSampler(66), T.dim)
    flows = _count(monkeypatch, "exp_diff", (bch_module, moment))
    points = _count(monkeypatch, "kronecker_points", (nilpotent, moment))
    cleared.clear()
    m = moment.moment_point_at(pt, T)
    assert [args[0] for args in cleared] == [pt.coords()]
    assert not rebuilt and not flows and not points
    assert m == moment.moment_point_closed_form(pt, T)
    X, Y, _z = _fraction_inputs(T, SeededSampler(67))
    product, expected = bch(X, Y, T), ref_bch(X, Y, T).coords
    rebuilt.clear()
    assert product.coords == expected and len(rebuilt) == 1
    assert product.coords and len(rebuilt) == 1


def test_chart_contractions_polarize_once(monkeypatch):
    T = catalog_get("det3").tensor()
    sampler = SeededSampler(65)
    X, Y, z = _fraction_inputs(T, sampler)
    pt = sample_chart_point(sampler, T.dim)
    mods = (bch_module, moment, nilpotent)
    polarizes = _count(monkeypatch, "polarize", mods)
    trilinears = _count(monkeypatch, "trilinear", mods)
    # On Fractions chart_decompose walks T's integer table once, in ints.
    bch_walks = _count(monkeypatch, "contract_cleared", (bch_module,))
    chart_decompose(X, z, T)
    assert not polarizes and not trilinears
    assert [args[0] is T.scaled()[1] for args in bch_walks] == [True]
    # The moment map walks T's integer table once, for theta~'s pull-back,
    # then the swapped rows of n's stored table once per bracket_transpose.
    # An sl(W) generator needs the pull-back only.
    _table, rows, swapped = nilpotent.bracket_views(T)
    walks = _count(monkeypatch, "contract_cleared", (moment, nilpotent))
    covector = [T.scaled()[1], swapped, swapped]
    for run, owners in (
        (lambda: moment.moment_point_at(pt, T), covector),
        (lambda: moment.moment_of(pt, Y, T), covector),
        (lambda: moment.moment_of(pt, SLW_GENERATORS[2], T), [T.scaled()[1]]),
    ):
        polarizes.clear()
        walks.clear()
        run()
        assert not polarizes and not trilinears
        assert len(walks) == len(owners)
        assert all(args[0] is rows for args, rows in zip(walks, owners))
    # Each series walks the stored rows for [X, Y], then only n2's p rows.
    p = T.dim
    for fn in (bch, exp_diff, exp_diff_inv):
        bch_walks.clear()
        fn(X, Y, T)
        assert [len(args[0]) for args in bch_walks] == [3 * p + 2, p]
        assert bch_walks[0][0] is rows and bch_walks[1][0] == rows[2 * p:3 * p]
    assert not polarizes and not trilinears


# --- the integer path of the series ----------------------------------------

# Pairwise coprime denominators, so the lcm of an element's grows large.
BIG_DENOMINATORS = (1_000_003, 998_244_353, 1_000_000_007, 2_147_483_647, 999_999_937)
# Zero often enough that one grade-1 column of a row is zero and the other not.
big_fractions = st.just(Fraction(0)) | st.builds(
    Fraction,
    st.integers(-10 ** 12, 10 ** 12),
    st.sampled_from(BIG_DENOMINATORS) | st.integers(1, 10 ** 12),
)
nonzero_fractions = st.builds(
    Fraction,
    st.integers(1, 10 ** 12) | st.integers(-10 ** 12, -1),
    st.sampled_from(BIG_DENOMINATORS) | st.integers(1, 10 ** 12),
)
# bracket and the series over n's stored table, against the references;
# all but bch are linear in their second argument.
SERIES = (
    (bch, ref_bch), (bracket, ref_bracket), (exp_diff, ref_exp_diff), (exp_diff_inv, ref_exp_diff_inv),
)


def _forms(p):
    """Q0, int 0, an empty form or a sparse form with big denominators."""
    sparse = st.dictionaries(st.integers(0, 3 * p + 1), nonzero_fractions, min_size=1, max_size=3)
    return st.sampled_from((Q0, 0, RefLinForm())) | sparse.map(RefLinForm)


def _rational(x):
    return all(type(c) in (int, Fraction) for c in x.coords)


@st.composite
def sparse_rank_p_cubics(draw):
    """p = 1..6, a diagonal entry per index and up to 2p other entries,
    all with big denominators; b_rank = p."""
    p = draw(st.integers(1, 6))
    entries = {(i, i, i): draw(nonzero_fractions) for i in range(p)}
    triples = [(i, j, k) for i in range(p) for j in range(i, p) for k in range(j, p)]
    for t in draw(st.lists(st.sampled_from(triples), unique=True, max_size=2 * p)):
        entries[t] = draw(nonzero_fractions)
    T = SymCubic(p, entries)
    assume(assumption_holds(T))
    return T


# Every catalog tensor here is integral; 5/7 gives T a denominator.
CATALOG_OR_SPARSE = st.sampled_from(("x3", "xyz", "det-sym-3", "det3")).map(
    lambda name: catalog_get(name).tensor()
) | sparse_rank_p_cubics()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    T=CATALOG_OR_SPARSE,
    scale=st.sampled_from((Fraction(1), Fraction(5, 7))),
    with_ints=st.booleans(),
)
def test_integer_path_matches_references(data, T, scale, with_ints):
    """Rational elements, of Fractions or with plain ints among them,
    take the integer path and give Fractions, on catalog cubics and on
    sparse cubics with big denominators.

    A Y of RefLinForms, on which the references compute, or one that
    mixes a nonzero constant into them, is refused by NElem with
    TypeError unless every coordinate is a rational zero; then bracket,
    exp_diff and exp_diff_inv agree with the references on it."""
    T = T.scale(scale)
    p = T.dim
    size = 3 * p + 2
    scalars = st.integers(-50, 50) | big_fractions if with_ints else big_fractions
    X, Y = (NElem(tuple(data.draw(st.lists(scalars, min_size=size, max_size=size)))) for _ in range(2))
    if with_ints:
        X = NElem((7,) + X.coords[1:])
    F = RefElem(data.draw(st.lists(_forms(p), min_size=size, max_size=size)))
    i = data.draw(st.integers(0, size - 1))
    mixed = RefElem(F.coords[:i] + (data.draw(st.sampled_from((3, Fraction(-2, 5)))),) + F.coords[i + 1:])
    for fn, ref in SERIES:
        for a, b in ((X, Y), (Y, X)):
            out = fn(a, b, T)
            assert out == ref(a, b, T), fn.__name__
            assert all(type(c) is Fraction for c in out.coords)
    for Z in (F, mixed):
        if not _rational(Z):
            with pytest.raises(TypeError):
                NElem(Z.coords)
            continue
        for fn, ref in SERIES[1:]:
            assert fn(X, NElem(Z.coords), T) == ref(X, Z, T), fn.__name__


# --- the cleared moment path -------------------------------------------------

def ref_moment_values(pt, T):
    """The moment functional on each basis element of n, from the
    references alone."""
    p = T.dim
    return [ref_one_form_value(pt, ref_velocity(pt, basis_element(p, i), T)) for i in range(3 * p + 2)]


def _assembled(mu, p):
    """moment_point_at's presentation of the values mu(i) on the basis."""
    return MomentPoint.from_parts(
        phi1=tuple((-2 * mu(p + k), 2 * mu(k)) for k in range(p)),
        phi2=tuple(mu(2 * p + k) for k in range(p)),
        phi3=(mu(3 * p + 1), -mu(3 * p)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), T=sparse_rank_p_cubics())
def test_rational_chart_decompose_matches_reference(data, T):
    """On a rational U and z chart_decompose runs in ints; it agrees with
    the ring-generic reference, whole blocks of U zero or not, at z zero,
    negative or fractional, and gives Fractions."""
    p = T.dim
    blocks = [
        data.draw(st.just([Q0] * n) | st.lists(big_fractions, min_size=n, max_size=n))
        for n in (p, p, p, 2)
    ]
    U = NElem(tuple(sum(blocks, [])))
    z = data.draw(st.sampled_from((0, Q0, -3, Fraction(-5, 3))) | big_fractions)
    chart, w = chart_decompose(U, z, T)
    assert (chart, w) == ref_chart_decompose(U, z, T)
    assert all(type(c) is Fraction for c in chart.coords)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), T=sparse_rank_p_cubics())
def test_line_solution_closed_form_on_sparse_cubics(data, T):
    _assert_line_closed_form(tuple(data.draw(st.lists(big_fractions, min_size=T.dim, max_size=T.dim))), T)


@st.composite
def edge_chart_points(draw, p):
    """Chart points whose x1, x2 or z may be zero and whose y may be negative."""
    vectors = st.just((Q0,) * p) | st.lists(big_fractions, min_size=p, max_size=p).map(tuple)
    chart = chart_elem(draw(vectors), draw(vectors), draw(big_fractions), draw(big_fractions))
    return ChartPoint(chart, draw(big_fractions), draw(nonzero_fractions))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), T=sparse_rank_p_cubics())
def test_cleared_moment_path_matches_references(data, T):
    """moment_of and the moment point against the per-term
    references: on a Fraction generator, per basis element, on the sl(W)
    generators (their jet reference) and on the generic element of the
    reference RefLinForm ring, which no kernel clears."""
    p = T.dim
    pt = data.draw(edge_chart_points(p))
    A = NElem(tuple(data.draw(st.lists(big_fractions, min_size=3 * p + 2, max_size=3 * p + 2))))
    assert moment.moment_of(pt, A, T) == ref_one_form_value(pt, ref_velocity(pt, A, T))
    mu = ref_moment_values(pt, T)
    assert [moment.moment_of(pt, basis_element(p, i), T) for i in range(3 * p + 2)] == mu
    m = moment.moment_point_at(pt, T)
    assert m == _assembled(mu.__getitem__, p) == moment.moment_point_closed_form(pt, T)
    assert moment.moment_membership(m, T)
    for g in SLW_GENERATORS:
        velocity = ref_velocity_from_slw_generator(pt, g, T)
        assert moment.moment_of(pt, g, T) == ref_one_form_value(pt, velocity)
    ref_form = ref_one_form_value(pt, ref_velocity(pt, ref_generic_element(p), T))
    assert _assembled(_linform_rows((ref_form,), 3 * p + 2)[0].__getitem__, p) == m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), T=sparse_rank_p_cubics())
def test_pullback_and_bracket_transpose_match_references(data, T):
    """xi_j, theta~'s pull-back on b_j, is theta~ on the chart velocity of
    b_j (ref_velocity with no series step); and bracket_transpose(x, u)_j
    is u([x, b_j]), from the reference bracket, for the chart element, for
    an element whose blocks may each be zero, and for u = xi and a drawn
    covector."""
    p = T.dim
    size = 3 * p + 2
    pt = data.draw(edge_chart_points(p))
    xi = moment._pullback(pt, T)
    basis = [basis_element(p, j) for j in range(size)]
    assert list(xi.coords) == [ref_one_form_value(pt, ref_chart_velocity(pt, b, T)) for b in basis]
    blocks = [
        data.draw(st.just([Q0] * n) | st.lists(big_fractions, min_size=n, max_size=n))
        for n in (p, p, p, 2)
    ]
    u = ClearedVector(tuple(data.draw(st.lists(big_fractions, min_size=size, max_size=size))))
    for x in (pt.chart, NElem(tuple(sum(blocks, [])))):
        for v in (xi, u):
            got = ClearedVector.of_cleared(*bracket_transpose(x.cleared, v.cleared, T))
            assert got.coords == tuple(_dot(v, ref_bracket(x, b, T).coords) for b in basis)
