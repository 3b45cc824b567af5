import importlib
from fractions import Fraction as F

import pytest
from conftest import chart_elem
from hypothesis import given, settings, strategies as st
from test_closed_forms import ref_bch
from test_scalar_references import RefElem, RefQPoly, kronecker_digits, line_as_ref_qpolys

from cubicontact import verify
from cubicontact.bch import (
    bch,
    chart_decompose,
    exp_diff,
    exp_diff_inv,
    roundtrip_bound,
    solve_line_coordinates,
)
from cubicontact.contact import ChartPoint
from cubicontact.cubic import DimensionMismatchError, SymCubic
from cubicontact.catalog import catalog_get
from cubicontact.nilpotent import NElem, basis_element, bracket, kronecker_points, n_dim
from cubicontact.reports import RunConfig
from cubicontact.sampling import SeededSampler
from cubicontact.scalars import HALF

bch_module = importlib.import_module("cubicontact.bch")

X3 = SymCubic(1, {(0, 0, 0): 1})
T2 = SymCubic(2, {(0, 0, 0): 1, (0, 1, 1): F(1, 2), (1, 1, 1): -2})


def sample_nelem(sampler, p):
    return NElem.from_parts(
        p,
        col1=sampler.vector(p),
        col2=sampler.vector(p),
        n2=sampler.vector(p),
        n3=(sampler.fraction(), sampler.fraction()),
    )


def test_bch_identity():
    sampler = SeededSampler(7)
    for _ in range(20):
        x = sample_nelem(sampler, 2)
        assert bch(x, NElem.zero(2), T2) == x
        assert bch(NElem.zero(2), x, T2) == x


def test_bch_hand_value():
    x = NElem.from_parts(1, col1=(F(1),))
    y = NElem.from_parts(1, col2=(F(1),))
    h = bch(x, y, X3)
    assert h.col(0) == (F(1),) and h.col(1) == (F(1),)
    assert h.n2 == (F(1, 2),)
    assert h.n3 == (F(-1, 12), F(1, 12))


def test_bch_inverse_collapses():
    sampler = SeededSampler(8)
    for _ in range(20):
        x = sample_nelem(sampler, 2)
        assert bch(x, -x, T2).is_zero()


def test_bch_no_grade_one_correction():
    sampler = SeededSampler(9)
    for _ in range(20):
        x = sample_nelem(sampler, 2)
        y = sample_nelem(sampler, 2)
        h = bch(x, y, T2)
        lin = x + y
        assert h.col(0) == lin.col(0) and h.col(1) == lin.col(1)


def test_group_laws():
    # A group element is its log: the product is bch, the inverse -a.
    sampler = SeededSampler(10)
    e = NElem.zero(2)
    for _ in range(25):
        a = sample_nelem(sampler, 2)
        b = sample_nelem(sampler, 2)
        c = sample_nelem(sampler, 2)
        assert bch(a, -a, T2).is_zero()
        assert bch(a, e, T2) == a
        assert bch(bch(a, b, T2), c, T2) == bch(a, bch(b, c, T2), T2)


def test_exp_diff_at_zero():
    sampler = SeededSampler(11)
    for _ in range(10):
        y = sample_nelem(sampler, 2)
        assert exp_diff(NElem.zero(2), y, T2) == y


def test_exp_diff_abelian_line():
    # X and Y sharing the W line bracket to zero.
    x = NElem.from_parts(1, col1=(F(2),))
    y = NElem.from_parts(1, col1=(F(5),))
    assert exp_diff(x, y, X3) == y


def test_exp_diff_hand_value():
    x = NElem.from_parts(1, col1=(F(1),))
    y = NElem.from_parts(1, col2=(F(1),))
    out = exp_diff(x, y, X3)
    assert out.col(1) == (F(1),)
    assert out.n2 == (F(1, 2),)
    assert out.n3 == (F(-1, 12), F(0))


def test_exp_diff_inv_trivial_x():
    sampler = SeededSampler(12)
    for _ in range(10):
        z = sample_nelem(sampler, 2)
        assert exp_diff_inv(NElem.zero(2), z, T2) == z


def test_exp_diff_roundtrip_basis_and_samples():
    sampler = SeededSampler(13)
    for p, T in ((1, X3), (2, T2)):
        x = sample_nelem(sampler, p)
        for z in (basis_element(p, i) for i in range(n_dim(p))):
            y = exp_diff_inv(x, z, T)
            assert exp_diff(x, y, T) == z
        for _ in range(50):
            x = sample_nelem(sampler, p)
            z = sample_nelem(sampler, p)
            assert exp_diff(x, exp_diff_inv(x, z, T), T) == z
            assert exp_diff_inv(x, exp_diff(x, z, T), T) == z


@pytest.mark.parametrize("name", ["xyz", "det3", "pfaff6"])
def test_exp_diff_generic_roundtrip_matches_basis_loop(name):
    T = catalog_get(name).tensor()
    p = T.dim
    x = sample_nelem(SeededSampler(14), p)
    (zk,) = kronecker_points(p, roundtrip_bound(x, T))
    inv = exp_diff_inv(x, zk, T)
    assert exp_diff(x, inv, T) == zk
    # exp_diff_inv times 2 * 6 dt dx^2 has integer entries, read off as
    # the balanced digits of its value at the Kronecker point.
    digits = kronecker_digits(inv, zk, 12 * T.scaled()[0] * x.cleared[1] ** 2)
    for i in range(n_dim(p)):
        z = basis_element(p, i)
        y = exp_diff_inv(x, z, T)
        assert tuple(row[i] for row in digits) == y.coords
        assert exp_diff(x, y, T) == z


def test_expdiff_suite_catches_perturbed_inverse(monkeypatch):
    T = catalog_get("det3").tensor()
    cfg = RunConfig(seed=7, samples=3)
    assert verify.run_expdiff_suite(T, cfg) == (
        "pass", {"samples": 3, "failures": []}
    )

    def perturbed(X, Z, T):
        # Linear in Z, wrong only on the basis direction eps_4.
        Y = exp_diff_inv(X, Z, T)
        return Y + NElem.from_parts(T.dim, n3=(HALF * Z.n2[4], F(0)))

    monkeypatch.setattr(verify, "exp_diff_inv", perturbed)
    status, details = verify.run_expdiff_suite(T, cfg)
    assert status == "fail"
    assert details["failures"][0] == {"check": "basis_roundtrip"}


def test_group_suite_reports_broken_inverse_once(monkeypatch):
    T = catalog_get("det3").tensor()
    cfg = RunConfig(seed=7, samples=3)
    assert verify.run_group_suite(T, cfg) == (
        "pass", {"samples": 3, "failures": []}
    )
    real = bch_module.bch

    def no_inverse(X, Y, T):
        # Off by a central f1 exactly when Y = -X.
        H = real(X, Y, T)
        if (X + Y).is_zero() and not X.is_zero():
            H = H + NElem.from_parts(T.dim, n3=(F(1), F(0)))
        return H

    monkeypatch.setattr(verify, "bch", no_inverse)
    status, details = verify.run_group_suite(T, cfg)
    assert status == "fail"
    assert details["failures"] == [{"check": "inverse", "sample": 0}]


def _grade1(x):
    return NElem.from_parts(x.dim, col1=x.col(0), col2=x.col(1))


def _display_inversion(x, z, T):
    # The published inversion display, including its 5/12 coefficient.
    p = T.dim
    x1 = _grade1(x)
    x2 = NElem.from_parts(p, n2=x.n2)
    z1 = _grade1(z)
    z2 = NElem.from_parts(p, n2=z.n2)
    y2 = z2 - HALF * bracket(x1, z1, T)
    y3_corr = (
        HALF * bracket(x1, z2, T)
        + HALF * bracket(x2, z1, T)
        - F(5, 12) * bracket(x1, bracket(x1, z1, T), T)
    )
    return NElem.from_parts(
        p, col1=z.col(0), col2=z.col(1), n2=y2.n2,
        n3=tuple(a - b for a, b in zip(z.n3, y3_corr.n3)),
    )


def test_inversion_matches_display_on_chart_subspace():
    # With X1 and Z1 proportional to the same W vector the display and
    # the solver agree, 5/12 term included.
    sampler = SeededSampler(14)
    for _ in range(25):
        x = NElem.from_parts(
            2,
            col2=sampler.vector(2),
            n2=sampler.vector(2),
            n3=(sampler.fraction(), sampler.fraction()),
        )
        z = NElem.from_parts(
            2,
            col2=sampler.vector(2),
            n2=sampler.vector(2),
            n3=(sampler.fraction(), sampler.fraction()),
        )
        assert bracket(_grade1(x), _grade1(z), T2).is_zero()
        assert exp_diff_inv(x, z, T2) == _display_inversion(x, z, T2)


def test_inversion_differs_from_display_by_quarter_term():
    # For general inputs solver minus display is -1/4 [X1, [X1, Z1]]
    # (the solver carries 1/6 where the display carries 5/12).
    sampler = SeededSampler(15)
    for _ in range(25):
        x = sample_nelem(sampler, 2)
        z = sample_nelem(sampler, 2)
        x1 = _grade1(x)
        z1 = _grade1(z)
        nested = bracket(x1, bracket(x1, z1, T2), T2)
        solver = exp_diff_inv(x, z, T2)
        display = _display_inversion(x, z, T2)
        assert display - solver == F(1, 4) * nested


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    data=st.tuples(*([small_fracs] * 8)),
)
def test_exp_diff_linear_in_y(data):
    x = NElem.from_parts(1, col1=(data[0],), col2=(data[1],), n2=(data[2],), n3=(data[3], data[4]))
    y = NElem.from_parts(1, col1=(data[5],), col2=(data[6],), n2=(data[7],))
    z = NElem.from_parts(1, col2=(data[1],), n2=(data[0],))
    left = exp_diff(x, y + z, X3)
    right = exp_diff(x, y, X3) + exp_diff(x, z, X3)
    assert left == right


def _recompose(chart, w, z, T, product=bch):
    """H(X, w (x) p), p = f1 + z f2: the inverse of chart_decompose."""
    wp = type(chart).from_parts(chart.dim, col1=w, col2=tuple(z * wi for wi in w))
    return product(chart, wp, T)


def test_chart_decompose_roundtrip():
    sampler = SeededSampler(16)
    for _ in range(25):
        u = sample_nelem(sampler, 2)
        z = sampler.fraction()
        chart, w = chart_decompose(u, z, T2)
        assert chart.col(0) == (F(0),) * 2
        assert _recompose(chart, w, z, T2) == u
    for p in (1, 3):
        with pytest.raises(DimensionMismatchError):
            chart_decompose(sample_nelem(sampler, p), F(1), T2)


def test_line_solution_zero_vector():
    xs, w = solve_line_coordinates((F(0),), X3)
    assert xs == (NElem.zero(1),) * 3 and all(x.is_zero() for x in xs)
    assert w == (F(0),)


def test_line_solution_grade_one_exact():
    # X(z) = X0 + z X1 + z^2 X2 has f1 column 0 and f2 column -z v; w = v.
    sampler = SeededSampler(17)
    for _ in range(10):
        v = sampler.vector(2)
        (x0, x1, x2), w = solve_line_coordinates(v, T2)
        assert all(x.col(0) == (F(0),) * 2 for x in (x0, x1, x2))
        assert x1.is_zero() is not any(v)
        assert x0.col(1) == x2.col(1) == (F(0),) * 2 and x1.col(1) == tuple(-x for x in v)
        assert w == v


def test_line_solution_sixth_coefficient():
    (_x0, x1, _x2), _w = solve_line_coordinates((F(1),), X3)
    assert abs(x1.n3[0]) == F(1, 6)


def test_line_solution_recomposes():
    # Substituted back through the group law as polynomials in z (the
    # reference series, run over RefQPoly): H(X, w (x) p) = v (x) f1.
    sampler = SeededSampler(18)
    for T, p in ((X3, 1), (T2, 2)):
        for _ in range(10):
            v = sampler.vector(p)
            chart, w = line_as_ref_qpolys(solve_line_coordinates(v, T))
            recomposed = _recompose(chart, w, RefQPoly.x(), T, ref_bch)
            for u, consistent in ((v, True), (tuple(c + 1 for c in v), False)):
                line = RefElem.from_parts(p, col1=tuple(map(RefQPoly.const, u)))
                assert (recomposed - line).is_zero() is consistent


def test_chart_elem_conversion():
    # A chart element is an NElem of n_m: a ChartPoint reads its chart
    # coordinates off it and refuses one with a nonzero f1 column.
    x = chart_elem((F(1), F(2)), (F(3), F(4)), F(5), F(6))
    assert x.col(0) == (F(0), F(0))
    assert x.col(1) == (F(1), F(2))
    assert x.n3 == (F(6), F(5))
    assert x.n2 == (F(3), F(4))
    pt = ChartPoint(x, F(7), F(8))
    assert pt.coords() == (F(8), F(7), F(5), F(6), F(1), F(2), F(3), F(4))
    assert ChartPoint(NElem.of_cleared([0, 0, 2, 4, 6, 8, 12, 10], 2), F(7), F(8)) == pt
    for bad in (
        NElem((F(1), F(0)) + x.coords[2:]),
        NElem((F(0), F(-1, 3)) + x.coords[2:]),
        NElem.of_cleared([0, 1, 2, 4, 6, 8, 12, 10], 2),
    ):
        with pytest.raises(ValueError):
            ChartPoint(bad, F(7), F(8))
