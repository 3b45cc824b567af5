from fractions import Fraction as F

import inspect

import pytest
from conftest import chart_elem, sparse_rows

from cubicontact import contact, moment, verify
from cubicontact.bch import solve_line_coordinates
from cubicontact.catalog import catalog_get, catalog_list
from cubicontact.contact import (
    AssumptionError,
    ChartPoint,
    dtheta_matrix,
    nondegeneracy_certificate,
    one_form_coefficients,
    require_assumption,
    sample_chart_point,
    tau,
    tau_line_constants,
    tau_matches_line_expansion,
)
from cubicontact.cubic import SymCubic, cubic_eval, polarize
from cubicontact.extraction import algebra_for, extraction
from cubicontact.linalg import mat_det
from cubicontact.moment import moment_membership, moment_point_at
from cubicontact.nilpotent import NElem
from cubicontact.reports import RunConfig
from cubicontact.sampling import SeededSampler
from cubicontact.scalars import HALF, Q0, ClearedVector, dot

X3 = SymCubic(1, {(0, 0, 0): 1})
FERMAT3 = SymCubic(3, {(i, i, i): 1 for i in range(3)})
ZERO1 = SymCubic(1, {})


# --- helpers only these tests use, moved out of the package ------------

def dtheta_fractions(pt, T):
    """d(theta~) at pt as Fraction rows: dtheta_matrix's int rows over its
    den, after checking that they are ints."""
    rows, den = dtheta_matrix(pt, T)
    assert all(type(v) is int for row in rows for v in row.values())
    return [{b: F(v, den) for b, v in row.items()} for row in rows]


def one_form_value(pt, velocity):
    """theta~ on a coordinate velocity at pt, a tuple or a ClearedVector:
    one dot with its coefficients, an int pass where both clear."""
    return dot(one_form_coefficients(pt), velocity)


def theta(X, Z, T):
    """Contact form at chart point X on a chart velocity Z, mod the f1 line.

    Returns the f2 coefficient Z3m + 1/2 (X1.Z2 - X2.Z1), in the
    orientation of one_form_value.
    """
    require_assumption(T)
    if X.dim != Z.dim or X.dim != T.dim:
        raise ValueError("dimension mismatch")
    x2_z1 = sum((a * b for a, b in zip(X.n2, Z.col(1))), Q0)
    z2_x1 = sum((a * b for a, b in zip(Z.n2, X.col(1))), Q0)
    return Z.n3[1] + HALF * (z2_x1 - x2_z1)


def symplectic_pairing_D(d1, d2, T):
    """Restriction of d(theta~) (y = 1) to the contact hyperplane at base.

    Arguments are coordinate velocity vectors at the base point; both
    must lie in the hyperplane, i.e. have zero value under theta~ there
    (the X3m component vanishes).
    """
    require_assumption(T)
    p = T.dim
    n = 2 * p + 4
    if len(d1) != n or len(d2) != n:
        raise ValueError(f"expected coordinate vectors of length {n}")
    base = ChartPoint.base(p)
    for d in (d1, d2):
        if one_form_value(base, d) != 0:
            raise ValueError("argument is not in the contact hyperplane")
    mat = dtheta_fractions(base, T)
    total = Q0
    for a in range(n):
        if not d1[a]:
            continue
        for b, entry in mat[a].items():
            if d2[b]:
                total += d1[a] * entry * d2[b]
    return total


def tau_closure_sample(v, t, T):
    """Homogenized sample [t^2 v : t B(v,v) : c(v) : t^3] of the closure.

    At t = 0 the raw tuple can vanish identically (when c(v) = 0); the
    returned value is then the limit representative along the ray, with
    the common power of t divided out: [0 : B(v,v) : 0 : 0] when the
    polarization survives, [v : 0 : 0 : 0] otherwise.
    """
    if len(v) != T.dim:
        raise ValueError("dimension mismatch")
    if not any(v) and not t:
        raise ValueError("(v, t) must be nonzero")
    p = T.dim
    bvv = polarize(T, v, v)
    cv = cubic_eval(T, v)
    if t:
        t2 = t * t
        return (
            tuple(t2 * x for x in v) + tuple(t * x for x in bvv) + (cv, t2 * t)
        )
    zero = (Q0,) * p
    if cv:
        return zero + zero + (cv, Q0)
    if any(bvv):
        return zero + bvv + (Q0, Q0)
    return tuple(v) + zero + (Q0, Q0)


def test_theta_at_base_point_is_x3m_coefficient():
    z = chart_elem((F(2),), (F(3),), F(7), F(4))
    assert theta(NElem.zero(1), z, X3) == 7


def test_theta_kills_chart_directions_with_zero_x3m():
    z = chart_elem((F(2),), (F(3),), F(0), F(4))
    assert theta(NElem.zero(1), z, X3) == 0


def test_theta_half_term():
    x = chart_elem((F(0),), (F(1),), F(0), F(0))
    z = chart_elem((F(1),), (F(0),), F(0), F(0))
    assert theta(x, z, X3) == F(-1, 2)
    assert theta(z, x, X3) == F(1, 2)


def test_theta_refuses_assumption_violation():
    with pytest.raises(AssumptionError):
        theta(NElem.zero(1), NElem.zero(1), ZERO1)


def test_dtheta_base_point_entries_p1():
    m = dtheta_fractions(ChartPoint.base(1), X3)
    # Coordinates (y, z, X3m, X3l, X1, X2): exactly the three blocks.
    expected = [[F(0)] * 6 for _ in range(6)]
    expected[0][2], expected[2][0] = F(1), F(-1)
    expected[1][3], expected[3][1] = F(-1), F(1)
    expected[4][5], expected[5][4] = F(1), F(-1)
    assert m == sparse_rows(expected)
    assert mat_det(m) == 1


def test_dtheta_scaling_in_y():
    m1 = dtheta_fractions(ChartPoint.base(1, F(1)), X3)
    m2 = dtheta_fractions(ChartPoint.base(1, F(2)), X3)
    assert m2[1][3] == 2 * m1[1][3]
    assert m2[5][4] == 2 * m1[5][4]
    assert m2[0][2] == m1[0][2]  # the dy block does not scale


def test_dtheta_antisymmetric_at_samples():
    sampler = SeededSampler(21)
    for _ in range(10):
        pt = sample_chart_point(sampler, 2)
        T = SymCubic(2, {(0, 0, 0): 1, (0, 1, 1): 1})
        m, _den = dtheta_matrix(pt, T)
        for a, row in enumerate(m):
            for b, entry in row.items():
                assert m[b].get(a) == -entry


def test_dtheta_determinant_is_fiber_power():
    # Derived strengthening: in this chart det = y^(2p+2) identically.
    sampler = SeededSampler(22)
    T = FERMAT3
    for _ in range(10):
        pt = sample_chart_point(sampler, 3)
        m = dtheta_fractions(pt, T)
        assert mat_det(m) == pt.y ** (2 * 3 + 2)


def _display_one_form_value(pt, velocity):
    """theta~ in the published display orientation, the opposite sign on
    the X2 terms: y (dX3m - z dX3l) + y/2 (X2.dX1 - X1.dX2)."""
    p = pt.dim
    x1, x2 = pt.chart.col(1), pt.chart.n2
    acc = Q0
    for i in range(p):
        acc += x2[i] * velocity[4 + i] - x1[i] * velocity[4 + p + i]
    return pt.y * (velocity[2] - pt.z * velocity[3]) + HALF * pt.y * acc


def _display_one_form_coefficients(pt):
    """The coefficients of _display_one_form_value, in coords() order."""
    y, x1, x2 = pt.y, pt.chart.col(1), pt.chart.n2
    head = (Q0, Q0, y, -y * pt.z)
    return ClearedVector(head + tuple(HALF * y * e for e in x2) + tuple(-HALF * y * a for a in x1))


def _exterior_derivative(form, pt):
    """M[a][b] = d_a form_b - d_b form_a.  theta~'s coefficients are
    affine in each single coordinate, so each partial is exactly the
    difference of form_b at pt with coordinate a moved by 1 and at pt."""
    n = 2 * pt.dim + 4
    units = [_unit(n, b) for b in range(n)]
    at = [form(pt, u) for u in units]
    partial = [[form(_moved_point(pt, a), units[b]) - at[b] for b in range(n)] for a in range(n)]
    return [[partial[a][b] - partial[b][a] for b in range(n)] for a in range(n)]


def test_display_orientation_has_the_same_determinant():
    # Both orientations give det d(theta~) = y^(2p+2) at seeded det3 points.
    T = catalog_get("det3").tensor()
    p = T.dim
    sampler = SeededSampler(23)
    for _ in range(4):
        pt = sample_chart_point(sampler, p)
        flow = dtheta_fractions(pt, T)
        display = sparse_rows(_exterior_derivative(_display_one_form_value, pt))
        assert flow != display
        assert mat_det(flow) == mat_det(display) == pt.y ** (2 * p + 2)


def test_display_orientation_breaks_the_moment_equation(monkeypatch):
    # The negative test of the orientation: with the display form pulled
    # back by the moment map, omega(phi1, phi3) = c(phi2, phi2, .) fails
    # on xyz at the same seeded points where the flow orientation
    # satisfies it.
    T = catalog_get("xyz").tensor()
    sampler = SeededSampler(25)
    points = [sample_chart_point(sampler, T.dim) for _ in range(3)]
    assert all(moment_membership(moment_point_at(pt, T), T) for pt in points)
    n = 2 * T.dim + 4
    for pt in points:
        coeffs = _display_one_form_coefficients(pt)
        assert all(coeffs[b] == _display_one_form_value(pt, _unit(n, b)) for b in range(n))
    monkeypatch.setattr(moment, "one_form_coefficients", _display_one_form_coefficients)
    assert not any(moment_membership(moment_point_at(pt, T), T) for pt in points)


def _moved_point(pt, a):
    """pt with coordinate a moved by 1."""
    coords = [c + 1 if i == a else c for i, c in enumerate(pt.coords())]
    p = pt.dim
    chart = chart_elem(
        tuple(coords[4: 4 + p]), tuple(coords[4 + p:]), coords[2], coords[3]
    )
    return ChartPoint(chart, coords[1], coords[0])


@pytest.mark.parametrize("p", [1, 3, 9])
def test_dtheta_is_exterior_derivative_of_one_form(p):
    # Independent reference: the exterior derivative of one_form_value.
    T = SymCubic(p, {(0, 0, 0): 1})
    sampler = SeededSampler(30 + p)
    for _ in range(3):
        pt = sample_chart_point(sampler, p)
        assert dtheta_fractions(pt, T) == sparse_rows(_exterior_derivative(one_form_value, pt))


def test_dtheta_stores_at_most_6p_plus_6_entries():
    # The closed form's entries only, never the (2p + 4)^2 square.
    p = 10 ** 4
    pt = sample_chart_point(SeededSampler(26), p)
    m, _den = dtheta_matrix(pt, SymCubic(p, {(0, 0, 0): 1}))
    assert len(m) == 2 * p + 4
    assert sum(len(row) for row in m) <= 6 * p + 6


def test_dtheta_requires_nonzero_y():
    pt = ChartPoint(NElem.zero(1), F(0), F(0))
    with pytest.raises(ValueError):
        dtheta_matrix(pt, X3)


def _reference_determinants(T, samples, seed):
    """mat_det of the exterior-derivative reference at the certificate's
    points, which have non-integral coordinates."""
    sampler = SeededSampler(seed)
    points = [sample_chart_point(sampler, T.dim) for _ in range(samples)]
    assert all(any(F(c).denominator > 1 for c in pt.coords()) for pt in points)
    return [mat_det(sparse_rows(_exterior_derivative(one_form_value, pt))) for pt in points]


@pytest.mark.parametrize("name", [e.name for e in catalog_list() if e.p <= 15])
def test_certificate_determinants_match_the_reference(name):
    T = catalog_get(name).tensor()
    rep = nondegeneracy_certificate(T, samples=3, seed=41)
    assert list(rep.determinants) == _reference_determinants(T, 3, 41)
    assert all(type(d) is F for d in rep.determinants)


def _doubled_z_x3l_entry():
    """contact.dtheta_matrix with its M[z][X3l] entry doubled."""
    src = inspect.getsource(contact.dtheta_matrix)
    entry = "(1, 3, -2 * y)"
    assert src.count(entry) == 1
    namespace = dict(vars(contact))
    exec(src.replace(entry, "(1, 3, -4 * y)"), namespace)
    return namespace["dtheta_matrix"]


def test_certificate_sees_a_doubled_builder_entry(monkeypatch):
    T = catalog_get("det3").tensor()
    ref = _reference_determinants(T, 3, 42)
    assert list(nondegeneracy_certificate(T, samples=3, seed=42).determinants) == ref
    [check] = verify.run_verification(T, ["contact"], RunConfig(seed=42, samples=3)).checks
    assert check["status"] == "pass"
    mutant = _doubled_z_x3l_entry()
    monkeypatch.setattr(contact, "dtheta_matrix", mutant)
    monkeypatch.setattr(verify, "dtheta_matrix", mutant)
    got = nondegeneracy_certificate(T, samples=3, seed=42).determinants
    assert all(d != r for d, r in zip(got, ref))
    [check] = verify.run_verification(T, ["contact"], RunConfig(seed=42, samples=3)).checks
    assert check["status"] == "fail" and check["details"]["base_point_det"] == "4"


def test_certificate_x3():
    rep = nondegeneracy_certificate(X3, samples=100, seed=0)
    assert rep.ok
    assert rep.samples == 100
    assert rep.assumption_ok
    js = rep.to_json()
    assert js["failures"] == []
    assert js["min_abs_det_num_digits"] >= 1


def test_certificate_zero_cubic_informational():
    rep = nondegeneracy_certificate(ZERO1, samples=20, seed=0)
    assert rep.ok  # Heisenberg-like structure stays nondegenerate
    assert not rep.assumption_ok


def test_certificate_determinism():
    a = nondegeneracy_certificate(X3, samples=25, seed=5).to_json()
    b = nondegeneracy_certificate(X3, samples=25, seed=5).to_json()
    assert a == b


def _unit(n, i):
    return tuple(F(1) if t == i else F(0) for t in range(n))


def test_pairing_d_blocks():
    p = 1
    n = 2 * p + 4
    # V direction (X1) against dual direction (X2): unit pairing.
    x1_dir = _unit(n, 4)
    x2_dir = _unit(n, 5)
    val = symplectic_pairing_D(x1_dir, x2_dir, X3)
    assert abs(val) == 1
    # z against X3l: the line pair.
    z_dir = _unit(n, 1)
    x3l_dir = _unit(n, 3)
    assert abs(symplectic_pairing_D(z_dir, x3l_dir, X3)) == 1
    # skew
    assert symplectic_pairing_D(x1_dir, x1_dir, X3) == 0
    assert symplectic_pairing_D(x1_dir, x2_dir, X3) == -symplectic_pairing_D(
        x2_dir, x1_dir, X3
    )


def test_pairing_d_rejects_non_d_vector():
    p = 1
    n = 2 * p + 4
    with pytest.raises(ValueError):
        symplectic_pairing_D(_unit(n, 2), _unit(n, 4), X3)


def test_pairing_d_rank():
    # Restricted to the chart directions of D the form has rank 2p + 2.
    for T, p in ((X3, 1), (FERMAT3, 3)):
        n = 2 * p + 4
        base = ChartPoint.base(p)
        m, _den = dtheta_matrix(base, T)
        d_indices = [1, 3] + list(range(4, n))  # z, X3l, X1.., X2..
        sub = [{b: v for b, v in m[a].items() if b in d_indices} for a in d_indices]
        from cubicontact.linalg import mat_rank

        assert mat_rank(sub) == 2 * p + 2


def test_tau_values():
    assert tau((F(0),), X3) == (F(0), F(0), F(0), F(1))
    assert tau((F(2),), X3) == (F(2), F(4), F(8), F(1))
    got = tau((F(1), F(1), F(0)), FERMAT3)
    assert got == (F(1), F(1), F(0), F(1), F(1), F(0), F(2), F(1))


def test_tau_closure_samples():
    v = (F(2),)
    assert tau_closure_sample(v, F(1), X3) == tau(v, X3)
    at_zero = tau_closure_sample(v, F(0), X3)
    assert at_zero == (F(0), F(0), F(8), F(0))
    # c(v) = 0 but B(v, v) != 0: second point class of the closure.
    T = SymCubic(2, {(0, 0, 1): F(1, 3)})  # c = x^2 y up to scale
    v2 = (F(1), F(0))
    assert cubic_eval(T, v2) == 0
    got = tau_closure_sample(v2, F(0), T)
    assert got[: 2] == (F(0), F(0))
    assert any(got[2: 4]) and got[4] == 0 and got[5] == 0


def test_tau_closure_rejects_double_zero():
    with pytest.raises(ValueError):
        tau_closure_sample((F(0),), F(0), X3)


TAU_CUBICS = tuple(e.name for e in catalog_list()) + ("extracted-G2", "extracted-F4")


def _tau_cubic(name):
    if name.startswith("extracted-"):
        return extraction(algebra_for(name[-2], int(name[-1]))).tensor
    return catalog_get(name).tensor()


@pytest.mark.parametrize("name", TAU_CUBICS)
def test_tau_line_constants_and_match(name):
    T = _tau_cubic(name)
    p = T.dim
    assert tau_line_constants(T) == (F(-1), F(-1, 2), F(1, 6))
    sampler = SeededSampler(23)
    for v in [(F(0),) * p] + [sampler.vector(p) for _ in range(20)]:
        # Degree-1 line coefficients are (-v, -B(v,v)/2, c(v)/6).
        (_x0, x1, _x2), _w = solve_line_coordinates(v, T)
        assert list(x1.col(1)) == [-x for x in v]
        assert list(x1.n2) == [-x / 2 for x in polarize(T, v, v)]
        assert x1.n3[0] == cubic_eval(T, v) / 6
        assert tau_matches_line_expansion(v, T)
    # Int coordinates are accepted; a wrong length raises, not truncates.
    assert tau_matches_line_expansion(tuple(range(-1, p - 1)), T)
    assert tau_matches_line_expansion((0,) * p, T)
    for v in ((F(1),) * (p + 1), (1,) * (p - 1)):
        with pytest.raises(ValueError):
            tau_matches_line_expansion(v, T)


def test_tau_suite_fails_with_wrong_signs(monkeypatch):
    # Right magnitudes, wrong signs: the suite must see it on the cubic.
    T = catalog_get("fermat3").tensor()
    cfg = RunConfig(seed=0, samples=5)
    assert verify.run_tau_suite(T, cfg)[0] == "pass"

    def wrong(_T):
        return F(1), F(1, 2), F(1, 6)

    monkeypatch.setattr(contact, "tau_line_constants", wrong)
    monkeypatch.setattr(verify, "tau_line_constants", wrong)
    status, details = verify.run_tau_suite(T, cfg)
    assert status == "fail"
    assert details["magnitudes_ok"]
    assert details["failures"]


def test_one_form_value_matches_matrix_convention():
    # theta~ at the base point picks the X3m velocity scaled by y.
    pt = ChartPoint.base(2, F(3))
    vel = tuple(F(1) if i == 2 else F(0) for i in range(8))
    assert one_form_value(pt, vel) == 3
