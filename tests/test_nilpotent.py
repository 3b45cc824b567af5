import functools
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cubicontact import nilpotent
from cubicontact.bch import bch, exp_diff
from cubicontact.chevalley import chevalley, verify_chevalley_jacobi
from cubicontact.catalog import catalog_get, catalog_list
from cubicontact.cubic import DimensionMismatchError, SymCubic
from cubicontact.extraction import algebra_for, extraction
from cubicontact.nilpotent import (
    NElem,
    SlWElem,
    act_slw,
    basis_element,
    bracket,
    bracket_table,
    bracket_transpose,
    dim_report,
    kronecker_points,
    n_dim,
    verify_jacobi,
)
from cubicontact.reports import RunConfig
from cubicontact.rootsystems import build_root_system
from cubicontact.sampling import SeededSampler
from cubicontact.verify import run_verification
from test_scalar_references import RefLinForm, kronecker_digits, ref_bracket, ref_generic_element

X3 = SymCubic(1, {(0, 0, 0): 1})
ZERO2 = SymCubic(2, {})
FERMAT3 = SymCubic(3, {(i, i, i): 1 for i in range(3)})


def _fresh(T):
    """A copy of T with no stored bracket table: a test that patches
    bracket_table must not read, or leave, a module tensor's."""
    return SymCubic(T.dim, T.entries)


def n_basis(p):
    """Every basis element of n, in basis order."""
    return [basis_element(p, i) for i in range(n_dim(p))]


def basis_degree(p, idx):
    """Grade of basis element idx: 2p in n1, p in n2, then 2 in n3."""
    return 1 if idx < 2 * p else 2 if idx < 3 * p else 3


def n_weight(p):
    """The degree grading of n, by basis position."""
    return [basis_degree(p, i) for i in range(n_dim(p))]


def sample_nelem(sampler, p):
    return NElem.from_parts(
        p,
        col1=sampler.vector(p),
        col2=sampler.vector(p),
        n2=sampler.vector(p),
        n3=(sampler.fraction(), sampler.fraction()),
    )


def test_bracket_v_f1_v_f2():
    x = NElem.from_parts(1, col1=(F(1),))
    y = NElem.from_parts(1, col2=(F(1),))
    out = bracket(x, y, X3)
    assert out.n2 == (F(1),)
    assert out.n3 == (F(0), F(0))
    assert not any(out.col(0) + out.col(1))


def test_bracket_dual_against_v_f2():
    eps = NElem.from_parts(1, n2=(F(1),))
    y = NElem.from_parts(1, col2=(F(1),))
    out = bracket(eps, y, X3)
    assert out.n3 == (F(0), F(1))  # = f2
    assert out.n2 == (F(0),)


def test_bracket_antisymmetry_on_samples():
    sampler = SeededSampler(1)
    T = SymCubic(2, {(0, 0, 0): 1, (0, 1, 1): F(1, 2)})
    for _ in range(25):
        x = sample_nelem(sampler, 2)
        y = sample_nelem(sampler, 2)
        assert bracket(x, y, T) == -bracket(y, x, T)
        assert bracket(x, x, T).is_zero()


def test_bracket_dimension_mismatch():
    x = NElem.zero(2)
    with pytest.raises(Exception):
        bracket(x, x, X3)


def test_central_grade_three():
    sampler = SeededSampler(2)
    T = SymCubic(2, {(0, 1, 1): 3})
    central = NElem.from_parts(2, n3=(F(2), F(-5)))
    for _ in range(10):
        x = sample_nelem(sampler, 2)
        assert bracket(x, central, T).is_zero()


def test_grading_of_bracket_table():
    # Brackets add degrees; pairs of total degree above three vanish.
    T = SymCubic(2, {(0, 0, 0): 1, (0, 1, 1): F(2, 3)})
    table = bracket_table(T)
    p = 2
    for a in range(n_dim(p)):
        for b in range(n_dim(p)):
            da, db = basis_degree(p, a), basis_degree(p, b)
            for idx, _c in table[a].get(b, ()):
                assert basis_degree(p, idx) == da + db
            if da + db > 3:
                assert b not in table[a]


def _explicit_bracket_table(T):
    """The bracket rules of n spelled out entry by entry, as a reference.

    [e_i f1, e_j f2] = B(e_i, e_j) = -[e_i f2, e_j f1] in n2 and
    [eps_i, e_i f_a] = f_a = -[e_i f_a, eps_i] in n3, in dict rows.
    """
    p = T.dim
    d = n_dim(p)
    table = [{} for _ in range(d)]
    for i in range(p):
        for j in range(p):
            cov = tuple(
                (2 * p + k, T.value(i, j, k)) for k in range(p) if T.value(i, j, k)
            )
            if cov:
                table[i][p + j] = cov
                table[p + i][j] = tuple((k, -v) for k, v in cov)
    for i in range(p):
        for a in (0, 1):
            table[2 * p + i][a * p + i] = ((3 * p + a, F(1)),)
            table[a * p + i][2 * p + i] = ((3 * p + a, F(-1)),)
    return table


def _table_cubic(name):
    if name.startswith("raw-"):
        return extraction(algebra_for(name[4], int(name[5:]))).raw_tensor
    return catalog_get(name).tensor()


@pytest.mark.parametrize(
    "name",
    [e.name for e in catalog_list()] + ["raw-G2", "raw-F4", "raw-E6"],
)
def test_bracket_table_matches_explicit_rules(name):
    T = _table_cubic(name)
    assert bracket_table(T) == _explicit_bracket_table(T)


def _generic_bracket_table(T):
    """The table read off ``bracket``, one bracket per row at the
    Kronecker point, as a reference: the balanced base-N digits of dt
    times coordinate k of [b_i, z_K] are dt times the k-th coordinates of
    the [b_i, b_j], each at most max(S, dt), S the sum of T.scaled()'s |v|."""
    p = T.dim
    dt, rows = T.scaled()
    (z,) = kronecker_points(p, max(dt, sum(abs(v) for row in rows for _j, _k, v in row)))
    table = []
    for i in range(n_dim(p)):
        row = {}
        for k, coeffs in enumerate(kronecker_digits(bracket(basis_element(p, i), z, T), z, dt)):
            for j, c in enumerate(coeffs):
                if c:
                    row.setdefault(j, []).append((k, c))
        table.append({j: tuple(terms) for j, terms in row.items()})
    return table


def _assert_same_table(T):
    # dt times the table read off bracket, dt = T.scaled()[0].
    table = bracket_table(T)
    dt = T.scaled()[0]
    assert table == [
        {j: tuple((k, dt * c) for k, c in terms) for j, terms in row.items()}
        for row in _generic_bracket_table(T)
    ]
    # Term for term: the same order of k and int values.
    assert all(
        type(c) is int and [k for k, _c in terms] == sorted(k for k, _c in terms)
        for row in table for terms in row.values() for _k, c in terms
    )


@pytest.mark.parametrize(
    "name",
    [e.name for e in catalog_list()] + [f"raw-{t}" for t in ("G2", "F4", "E6", "E7", "E8")],
)
def test_bracket_table_matches_generic_bracket(name):
    _assert_same_table(_table_cubic(name))


@st.composite
def _sparse_cubic(draw):
    p = draw(st.integers(1, 8))
    index = st.integers(0, p - 1)
    value = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    entries = draw(st.dictionaries(st.tuples(index, index, index), value, max_size=10))
    return SymCubic(p, {tuple(sorted(t)): v for t, v in entries.items()})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(T=_sparse_cubic())
def test_bracket_table_matches_generic_bracket_on_random_cubics(T):
    _assert_same_table(T)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(T=_sparse_cubic(), data=st.data())
def test_int_table_has_the_violations_of_the_fraction_table(T, data):
    # dt > 1: the int table is dt times the Fraction reference, so every
    # jacobiator scales by dt^2 and the violations are the same, also
    # after one coefficient is doubled in one orientation.
    assume(T.scaled()[0] > 1)
    table, ref = bracket_table(T), _explicit_bracket_table(T)
    assert list(nilpotent.jacobi_violations(table)) == list(nilpotent.jacobi_violations(ref)) == []
    i, j = data.draw(st.sampled_from([(i, j) for i, row in enumerate(ref) for j in row]))
    t = data.draw(st.integers(0, len(ref[i][j]) - 1))
    for rows in (table, ref):
        terms = list(rows[i][j])
        terms[t] = (terms[t][0], 2 * terms[t][1])
        rows[i][j] = tuple(terms)
    found = list(nilpotent.jacobi_violations(table))
    assert found == list(nilpotent.jacobi_violations(ref))
    assert (min(i, j), max(i, j)) in found


def _consumer_outputs(T):
    """bracket, bch and bracket_transpose on fixed elements of n(T)."""
    sampler = SeededSampler(8)
    x, y = sample_nelem(sampler, T.dim), sample_nelem(sampler, T.dim)
    return bracket(x, y, T), bch(x, y, T), bracket_transpose(x.cleared, y.cleared, T)


def _assert_edit_reaches_every_consumer(monkeypatch, edit, pairs):
    """On a fresh tensor whose stored table is bracket_table's with
    ``edit`` applied, the jacobi suite fails with the antisymmetry pairs
    ``pairs(table)`` of the clean table first, and bracket, bch and
    bracket_transpose all change: they contract with the table the suite
    checks."""
    for name in ("x3", "xyz", "det3"):
        clean = _consumer_outputs(catalog_get(name).tensor())
        expected = sorted(pairs(bracket_table(catalog_get(name).tensor())))
        expected = [list(v) for v in expected[:nilpotent.MAX_VIOLATIONS]]
        with monkeypatch.context() as mp:
            _patch_table(mp, edit)
            T = catalog_get(name).tensor()
            check = run_verification(T, ["jacobi"], RunConfig(seed=1)).checks[0]
            edited = _consumer_outputs(T)
        assert check["status"] == "fail"
        assert check["details"]["jacobi"]["jacobi_violations"][:len(expected)] == expected
        assert all(a != b for a, b in zip(clean, edited)), name


def test_jacobi_suite_reads_bracket(monkeypatch):
    # A bracket whose n2 part is symmetric, B(x_f1, y_f2) + B(x_f2, y_f1),
    # is not a Lie bracket: [e_i f2, e_j f1] keeps the sign of
    # [e_j f1, e_i f2].
    def symmetric_n2(t):
        p = (len(t) - 2) // 3
        for i in range(p, 2 * p):
            for j in [j for j in t[i] if j < p]:
                t[i][j] = tuple((k, -c) for k, c in t[i][j])

    def pairs(table):
        p = (len(table) - 2) // 3
        return {(i, j) for i in range(p) for j in table[i] if j < 2 * p}

    _assert_edit_reaches_every_consumer(monkeypatch, symmetric_n2, pairs)


def test_jacobi_suite_catches_one_sided_n3_sign_flip(monkeypatch):
    # [eps, v (x) w] = v*(v) w, but the mutant's [v (x) w, eps] is +v*(v) w.
    def flipped_n3(t):
        p = (len(t) - 2) // 3
        for s in (0, 1):
            for m in range(p):
                t[s * p + m][2 * p + m] = tuple((k, -c) for k, c in t[s * p + m][2 * p + m])

    def pairs(table):
        p = (len(table) - 2) // 3
        return {(s * p + m, 2 * p + m) for s in (0, 1) for m in range(p)}

    _assert_edit_reaches_every_consumer(monkeypatch, flipped_n3, pairs)


def test_jacobi_suite_builds_the_table_once(monkeypatch):
    # One bracket_table per tensor: the jacobi suite checks the stored
    # table, and the group law and the moment map contract with its views.
    calls = []
    real = nilpotent.bracket_table
    monkeypatch.setattr(nilpotent, "bracket_table", lambda T: calls.append(T) or real(T))
    T = catalog_get("det3").tensor()
    cfg = RunConfig(seed=2, samples=2)
    report = run_verification(T, ["jacobi", "group", "expdiff", "moment"], cfg)
    assert report.all_pass and calls == [T]
    assert nilpotent.bracket_views(T)[0] == real(T) and len(calls) == 1
    assert verify_jacobi(T) == verify_jacobi(catalog_get("det3").tensor())


def test_corrupted_table_reaches_the_kernel_through_the_suite(monkeypatch):
    def edit(t):
        t[2][2] = ((3, F(1)),)  # [eps, eps] = f1

    _patch_table(monkeypatch, edit)
    check = run_verification(_fresh(X3), ["jacobi"], RunConfig(seed=0)).checks[0]
    assert check["status"] == "fail"
    assert check["details"]["jacobi"]["jacobi_violations"][0] == [2, 2]


def test_jacobi_x3_full_enumeration():
    rep = verify_jacobi(X3)
    assert rep.ok
    assert rep.triples_checked == 10  # C(5, 3)
    assert rep.dim_n == 5
    assert rep.assumption_ok


def _jacobi_violations_all_ordered(table):
    """Sorted distinct triples with a nonzero jacobiator, over all d^3."""
    d = len(table)
    found = set()
    for i in range(d):
        for j in range(d):
            for k in range(d):
                acc = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for b, c in table[y].get(z, ()):
                        for b2, c2 in table[x].get(b, ()):
                            acc[b2] = acc.get(b2, 0) + c * c2
                if any(acc.values()):
                    found.add(tuple(sorted((i, j, k))))
    return found


def _patch_table(monkeypatch, edit):
    real = nilpotent.bracket_table

    def patched(T):
        table = real(T)
        edit(table)
        return table

    monkeypatch.setattr(nilpotent, "bracket_table", patched)


@pytest.mark.parametrize("name", ["xq5", "det3", "pfaff6"])
def test_jacobi_checks_unordered_triples(name):
    T = catalog_get(name).tensor()
    d = n_dim(T.dim)
    rep = verify_jacobi(T)
    assert rep.ok
    assert rep.triples_checked == d * (d - 1) * (d - 2) // 6


def test_jacobi_catches_asymmetric_entry(monkeypatch):
    p = 3

    def edit(t):
        # [e0 f1, e0 f2] gains an f1 term that [e0 f2, e0 f1] lacks.
        t[0][p] = t[0].get(p, ()) + ((3 * p, F(1)),)

    _patch_table(monkeypatch, edit)
    rep = verify_jacobi(_fresh(FERMAT3))
    assert not rep.ok
    assert (0, p) in rep.violations


def test_jacobi_catches_nonzero_self_bracket(monkeypatch):
    def edit(t):
        t[2][2] = ((3, F(1)),)  # [eps, eps] = f1

    _patch_table(monkeypatch, edit)
    rep = verify_jacobi(_fresh(X3))
    assert not rep.ok
    assert rep.violations[0] == (2, 2)


def test_jacobi_catches_antisymmetric_corruption(monkeypatch):
    p = 3
    eps1 = 2 * p + 1

    def edit(t):
        # [e0 f1, e0 f2] = eps0 + eps1 and its negative: still
        # antisymmetric, but [e1 f1, eps1] = -f1 breaks Jacobi on
        # (e0 f1, e1 f1, e0 f2).
        t[0][p] = t[0].get(p, ()) + ((eps1, F(1)),)
        t[p][0] = t[p].get(0, ()) + ((eps1, F(-1)),)

    _patch_table(monkeypatch, edit)
    assert not verify_jacobi(_fresh(FERMAT3)).ok
    violations = list(
        nilpotent.jacobi_violations(nilpotent.bracket_table(FERMAT3))
    )
    assert all(len(v) == 3 and v[0] < v[1] < v[2] for v in violations)
    assert (0, 1, p) in violations
    assert set(violations) == _jacobi_violations_all_ordered(
        nilpotent.bracket_table(FERMAT3)
    )


def test_jacobi_zero_cubic():
    rep = verify_jacobi(ZERO2)
    assert rep.ok
    assert not rep.assumption_ok


def test_jacobi_report_json_shape():
    rep = verify_jacobi(X3)
    js = rep.to_json()
    assert js["jacobi_violations"] == []
    assert js["p"] == 1 and js["dim_n"] == 5
    assert isinstance(js["cubic_hash"], str)


def test_dim_w_two_identity_triple():
    # The cyclic sum for x = v f1, y = v f2, z = v f1 vanishes through
    # the two dimensional identity on W.
    T = X3
    x = NElem.from_parts(1, col1=(F(1),))
    y = NElem.from_parts(1, col2=(F(1),))
    z = NElem.from_parts(1, col1=(F(1),))
    total = (
        bracket(x, bracket(y, z, T), T)
        + bracket(y, bracket(z, x, T), T)
        + bracket(z, bracket(x, y, T), T)
    )
    assert total.is_zero()


def test_act_slw_zero_and_torus():
    zero = SlWElem.of(0, 0, 0)
    diag = SlWElem.of(1, 0, 0)  # diag(1, -1)
    x1 = NElem.from_parts(1, col1=(F(1),))
    assert act_slw(zero, x1).is_zero()
    assert act_slw(diag, x1) == x1
    x2 = NElem.from_parts(1, col2=(F(1),))
    assert act_slw(diag, x2) == -x2
    eps = NElem.from_parts(1, n2=(F(1),))
    assert act_slw(diag, eps).is_zero()


def test_act_slw_requires_traceless():
    with pytest.raises(ValueError):
        SlWElem(((F(1), F(0)), (F(0), F(1))))


def test_act_slw_is_derivation():
    T = SymCubic(2, {(0, 0, 1): 1, (1, 1, 1): F(1, 2)})
    sampler = SeededSampler(4)
    gens = [SlWElem.of(1, 0, 0), SlWElem.of(0, 1, 0), SlWElem.of(0, 0, 1)]
    for g in gens:
        for _ in range(10):
            x = sample_nelem(sampler, 2)
            y = sample_nelem(sampler, 2)
            lhs = act_slw(g, bracket(x, y, T))
            rhs = bracket(act_slw(g, x), y, T) + bracket(x, act_slw(g, y), T)
            assert lhs == rhs


def test_dim_report_values():
    assert dim_report(X3) == {
        "p": 1,
        "dim_n": 5,
        "dim_xc_via_group": 5,
        "dim_xc_formula": 5,
        "consistent": True,
    }
    r6 = dim_report(SymCubic(6, {}))
    assert r6["dim_xc_formula"] == 15 and r6["consistent"]
    r27 = dim_report(SymCubic(27, {}))
    assert r27["dim_xc_formula"] == 57 and r27["consistent"]


def test_basis_enumeration():
    basis = n_basis(2)
    assert len(basis) == 8
    degrees = [basis_degree(2, i) for i in range(8)]
    assert degrees == [1, 1, 1, 1, 2, 2, 3, 3]


def test_generic_element_rejects_nonlinear_use():
    # The reference bracket refuses a product of two linear forms; the
    # package's refuses the forms themselves.
    T = SymCubic(2, {(0, 0, 1): 1})
    g = ref_generic_element(2)
    for fn in (bracket, ref_bracket):
        with pytest.raises(TypeError):
            fn(g, g, T)


# --- the basis-order layout -------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 5])
def test_basis_and_generic_element_coordinates(p):
    d = n_dim(p)
    generic = ref_generic_element(p)
    assert len(generic.coords) == d
    for i in range(d):
        assert basis_element(p, i).coords == tuple(F(k == i) for k in range(d))
        assert generic.coords[i] == RefLinForm.coordinate(i)
    # The Kronecker point's coordinates are the powers of N = 2^(b + 1),
    # b the bound's bit length: N > 2 bound.
    for bound, n in ((0, 2), (1, 4), (5, 16), (2 ** 40, 2 ** 42)):
        (z,) = kronecker_points(p, bound)
        assert z.coords == tuple(F(n ** k) for k in range(d)) and n > 2 * bound
    for idx in (-1, d, d + 1):
        with pytest.raises(IndexError):
            basis_element(p, idx)


@pytest.mark.parametrize(
    "part, value",
    [("col1", (1, 2, 3)), ("col2", (1,)), ("n2", (1, 2, 3)), ("n3", (1, 2, 3)), ("n3", ())],
)
def test_from_parts_rejects_a_part_of_the_wrong_length(part, value):
    with pytest.raises(DimensionMismatchError, match=part):
        NElem.from_parts(2, **{part: value})


@pytest.mark.parametrize("length", [0, 1, 3, 4, 6, 9])
def test_coordinates_not_3p_plus_2_are_rejected(length):
    with pytest.raises(DimensionMismatchError, match="3p \\+ 2"):
        NElem((F(1),) * length)


def test_sum_and_difference_need_one_dimension():
    with pytest.raises(ValueError):
        NElem.zero(1) + NElem.zero(2)
    with pytest.raises(ValueError):
        NElem.zero(2) - NElem.zero(1)


def _pair_layout_act_slw(g, x):
    """act_slw on the grade-1 part held as p rows (f1, f2 coefficient)."""
    (a, b), (c, d) = g.mat
    rows = [(a * r0 + b * r1, c * r0 + d * r1) for r0, r1 in zip(x.col(0), x.col(1))]
    u, v = x.n3
    return NElem.from_parts(
        x.dim,
        col1=[r[0] for r in rows],
        col2=[r[1] for r in rows],
        n3=(a * u + b * v, c * u + d * v),
    )


_coord = st.just(F(0)) | st.fractions(min_value=-5, max_value=5, max_denominator=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.integers(1, 4), data=st.data(), s=_coord, g=st.tuples(_coord, _coord, _coord))
def test_layout_acts_coordinate_by_coordinate(p, data, s, g):
    vec = st.lists(_coord, min_size=p, max_size=p).map(tuple)
    col1, col2, n2 = data.draw(vec), data.draw(vec), data.draw(vec)
    n3 = data.draw(st.tuples(_coord, _coord))
    x = NElem.from_parts(p, col1=col1, col2=col2, n2=n2, n3=n3)
    assert x.coords == col1 + col2 + n2 + n3
    assert (x.dim, x.col(0), x.col(1), x.n2, x.n3) == (p, col1, col2, n2, n3)
    y = NElem(data.draw(st.lists(_coord, min_size=n_dim(p), max_size=n_dim(p)).map(tuple)))
    pairs = list(zip(x.coords, y.coords))
    assert (x + y).coords == tuple(a + b for a, b in pairs)
    assert (x - y).coords == tuple(a - b for a, b in pairs)
    assert (-x).coords == tuple(-a for a in x.coords)
    assert (x * s).coords == (s * x).coords == tuple(a * s for a in x.coords)
    for z in (x, y, x * 0, NElem.zero(p)):
        assert z.is_zero() == all(a == 0 for a in z.coords)
    gen = SlWElem.of(*g)
    assert act_slw(gen, x) == _pair_layout_act_slw(gen, x)


# --- value semantics of the cleared form -----------------------------------

def _cleared_only(x):
    """x as the group law returns it, holding its cleared form alone."""
    out = exp_diff(NElem.zero(x.dim), x, SymCubic(x.dim, {}))
    assert "coords" not in vars(out)
    return out


_rational_coords = st.integers(1, 3).flatmap(
    lambda p: st.lists(_coord, min_size=n_dim(p), max_size=n_dim(p)).map(tuple)
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(u=_rational_coords, v=_rational_coords)
@example(u=(F(0),) * 5, v=(F(0),) * 5)
@example(u=(F(1),) + (F(0),) * 4, v=(F(1, 2),) * 8)
def test_cleared_only_elements_keep_value_semantics(u, v):
    x, y = NElem(u), NElem(v)
    cx, cy = _cleared_only(x), _cleared_only(y)
    same = u == v
    for a, b in ((x, y), (cx, y), (x, cy), (cx, cy)):
        assert (a == b) is same and (a != b) is not same
    # ==, !=, dim, is_zero and -x read the cleared form alone.
    assert cx == x and x == cx and not cx != x
    assert cx.dim == x.dim and cx.is_zero() is x.is_zero() is (not any(u))
    neg = -cx
    assert "coords" not in vars(neg) and neg == -x and -neg == cx
    assert "coords" not in vars(cx)
    assert neg.coords == tuple(-a for a in u)
    # An int coordinate leaves no cleared form; the coordinates compare.
    ints = NElem(tuple(int(a) if a.denominator == 1 else a for a in u))
    assert ints == cx and cx == ints and hash(ints) == hash(cx) == hash(x)
    assert cx.coords == u and all(type(a) is F for a in cx.coords)
    if same:
        assert hash(cy) == hash(x)


def test_elements_without_a_rational_cleared_form_compare_by_coordinates():
    one = (F(1),) + (F(0),) * 4
    ints = NElem((1,) + (0,) * 4)
    assert ints == NElem(one) == _cleared_only(NElem(one)) == ints
    assert hash(ints) == hash(_cleared_only(NElem(one)))
    assert ints != _cleared_only(basis_element(1, 1)) and -ints == -NElem(one)
    forms = NElem((RefLinForm(),) * 5)
    assert forms == NElem.zero(1) == forms == _cleared_only(NElem.zero(1))
    assert forms.is_zero() and forms != ref_generic_element(1)
    ref = NElem((RefLinForm.coordinate(0),) + (RefLinForm(),) * 4)
    assert ref == NElem((RefLinForm.coordinate(0),) + (F(0),) * 4)
    assert ref != NElem.zero(1) and ref != _cleared_only(basis_element(1, 0))
    assert (-ref).coords == (RefLinForm({0: F(-1)}),) + (RefLinForm(),) * 4
    assert (ref.dim, ref.is_zero(), NElem((RefLinForm(),) * 5).is_zero()) == (1, False, True)


def test_elements_are_immutable():
    x = _cleared_only(basis_element(1, 0))
    for name in ("coords", "cleared", "dim"):
        with pytest.raises(AttributeError):
            setattr(x, name, ())
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == basis_element(1, 0)


# --- the Jacobi kernel against the ungraded walk -------------------------


def _ungraded_violations(rows):
    """The Jacobi kernel without its candidate rule, as a reference.

    The antisymmetry pairs, then a walk over all C(d, 3) triples that
    skips a triple only when none of [b_i,b_j], [b_j,b_k], [b_k,b_i] is
    stored.
    """
    bad = set()
    for a, row in enumerate(rows):
        for b, terms in row.items():
            if dict(rows[b].get(a, ())) != {k: -c for k, c in terms}:
                bad.add((min(a, b), max(a, b)))
    yield from sorted(bad)
    d = len(rows)
    for i in range(d):
        row_i = rows[i]
        for j in range(i + 1, d):
            row_j = rows[j]
            ij_zero = j not in row_i
            for k in range(j + 1, d):
                if ij_zero and k not in row_j and i not in rows[k]:
                    continue  # all three inner brackets vanish
                if nilpotent._jacobiator(rows, i, j, k):
                    yield (i, j, k)


def _chevalley_weight(alg):
    """The root-lattice grading, each root as an int in base 64."""
    return [
        sum(x * 64 ** i for i, x in enumerate(v)) if k == "e" else 0
        for k, v in alg.labels
    ]


@functools.cache
def _graded_table(name):
    """Rows, weights, homogeneous slots (a, b, k) and the Chevalley
    generators e_{+-alpha_i} (none for n) of a clean table."""
    if name in ("G2", "B3"):
        alg = chevalley(build_root_system(name[0], int(name[1:])))
        rows, weight = alg.table(), _chevalley_weight(alg)
        true_generators = alg.simple_root_vectors()
    else:
        T = catalog_get(name).tensor()
        rows, weight = bracket_table(T), n_weight(T.dim)
        true_generators = []
    d = len(rows)
    slots = [
        (a, b, k) for a in range(d) for b in range(d) for k in range(d)
        if weight[k] == weight[a] + weight[b]
    ]
    return rows, weight, slots, true_generators


def _draw_generators(draw, d, true_generators=(), kinds=("none", "all", "subset", "true")):
    """None, every position, a random subset, or the true generators;
    Hypothesis leans to the first of ``kinds``."""
    kind = draw(st.sampled_from(kinds))
    if kind == "all":
        return list(range(d))
    if kind == "subset":
        return draw(st.lists(st.integers(0, d - 1), max_size=d))
    return list(true_generators) if kind == "true" else []


def _add_term(rows, a, b, k, c):
    """Add c b_k to the stored [b_a, b_b], dropping the entry if it cancels."""
    terms = dict(rows[a].get(b, ()))
    terms[k] = terms.get(k, 0) + c
    entry = tuple((t, v) for t, v in sorted(terms.items()) if v)
    if entry:
        rows[a][b] = entry
    else:
        rows[a].pop(b, None)


_CORRUPTIONS = ["wrong-weight", "right-weight", "drop", "scale"]


@st.composite
def _corrupted_table(draw):
    """A clean n or Chevalley table with one or two corruptions, and a
    generators list for it.  Each corruption edits one orientation of a
    pair or both: a table edited in both stays antisymmetric, and the
    generator certificate runs on it."""
    name = draw(st.sampled_from(["x3", "fermat3", "xyz", "det3", "G2", "B3"]))
    clean, _weight, slots, true_generators = _graded_table(name)
    rows = [dict(row) for row in clean]
    d = len(rows)
    for kind in draw(st.lists(st.sampled_from(_CORRUPTIONS), min_size=1, max_size=2)):
        c = draw(st.sampled_from([1, -1, 2]))
        both = draw(st.sampled_from([True, False]))
        stored = [(a, b) for a in range(d) for b in sorted(rows[a])]
        if kind in ("drop", "scale"):
            a, b = draw(st.sampled_from(stored))
            factor = draw(st.sampled_from([-1, 2, 3])) if kind == "scale" else 0
            for x, y in ((a, b), (b, a))[:1 + both]:
                if not factor:
                    rows[x].pop(y, None)
                elif y in rows[x]:
                    rows[x][y] = tuple((k, v * factor) for k, v in rows[x][y])
            continue
        if kind == "wrong-weight":
            a, b, k = (draw(st.integers(0, d - 1)) for _ in range(3))
            assume((a, b, k) not in slots)
        else:
            a, b, k = draw(st.sampled_from(slots))
        _add_term(rows, a, b, k, c)
        if both:
            _add_term(rows, b, a, k, -c)
    return rows, _draw_generators(draw, d, true_generators, ("all", "subset", "true", "none"))


def _producer_only_case():
    """xyz with [e_0 (x) f2, e_2 (x) f2] = eps_2 in both orientations, a
    wrong-weight term (omega(f2, f2) = 0), every position a generator.
    Its one violation (2, 3, 5) shows only in [b_2, [b_3, b_5]]: b_3 and
    b_5 hold nothing of [b_5, b_2] = 0 or [b_2, b_3] = eps_1, so
    _pairs_through finds the pair (3, 5) for b_2 only from eps_2's
    producers."""
    rows = [dict(row) for row in _graded_table("xyz")[0]]
    _add_term(rows, 3, 5, 8, 1)
    _add_term(rows, 5, 3, 8, -1)
    return rows, list(range(len(rows)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_corrupted_table())
@example(case=_producer_only_case())
def test_graded_kernel_matches_ungraded_walk(case):
    rows, generators = case
    assert list(nilpotent.jacobi_violations(rows, generators)) == list(
        _ungraded_violations(rows)
    )


@st.composite
def _random_graded_table(draw):
    """Random integer weights and random entries, nearly all homogeneous,
    each stored in one orientation or in both with opposite signs, and a
    generators list."""
    d = draw(st.integers(3, 7))
    weight = [draw(st.integers(-3, 3)) for _ in range(d)]
    rows = [{} for _ in range(d)]
    for _ in range(draw(st.integers(1, 8))):
        a, b = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        s = weight[a] + weight[b]
        right = [k for k in range(d) if weight[k] == s]
        if right and draw(st.integers(0, 5)):
            k = draw(st.sampled_from(right))
        else:
            k = draw(st.integers(0, d - 1))
        c = draw(st.sampled_from([1, -1, 2]))
        _add_term(rows, a, b, k, c)
        if draw(st.booleans()):
            _add_term(rows, b, a, k, -c)
    return rows, _draw_generators(draw, d)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_random_graded_table())
def test_graded_kernel_matches_ungraded_walk_on_random_gradings(case):
    rows, generators = case
    assert list(nilpotent.jacobi_violations(rows, generators)) == list(
        _ungraded_violations(rows)
    )


@st.composite
def _antisymmetric_table(draw):
    """A table and its first 2 or 3 positions as generators, every entry
    stored in both orientations with opposite signs.  Each later position
    is first made a single-term bracket of a generator with an earlier
    position, each pair used once, so the generators reach it.  On about
    half the draws random entries are added on top, which can spoil that;
    about two thirds of the tables left alone are Lie tables, which the
    certificate decides."""
    d = draw(st.integers(4, 7))
    generators = list(range(draw(st.integers(2, 3))))
    rows = [{} for _ in range(d)]
    entries = []
    for k in range(len(generators), d):
        a = draw(st.sampled_from(generators))
        linked = [{x, y} for x, y, _k in entries]
        b = draw(st.sampled_from([j for j in range(k) if j != a and {a, j} not in linked]))
        entries.append((a, b, k))
    if draw(st.booleans()):
        entries += draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * 3), max_size=6))
    for a, b, k in entries:
        c = draw(st.sampled_from([1, -1, 2]))
        if a != b:
            _add_term(rows, a, b, k, c)
            _add_term(rows, b, a, k, -c)
    return rows, generators


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_antisymmetric_table())
def test_generator_certificate_matches_ungraded_walk(case):
    rows, generators = case
    assert list(nilpotent.jacobi_violations(rows, generators)) == list(
        _ungraded_violations(rows)
    )


def _count_jacobiators(monkeypatch):
    calls = []
    real = nilpotent._jacobiator

    def counted(rows, i, j, k):
        calls.append((i, j, k))
        return real(rows, i, j, k)

    monkeypatch.setattr(nilpotent, "_jacobiator", counted)
    return calls


@pytest.mark.parametrize(
    "rank, count", [(6, 4_634), (7, 12_799), (8, 41_980)], ids=["E6", "E7", "E8"]
)
def test_jacobiator_count_e_series(rank, count, monkeypatch):
    # Only the generator pass runs: the walk alone evaluates 49,647
    # jacobiators on E7 and 249,596 on E8.
    alg = algebra_for("E", rank)
    calls = _count_jacobiators(monkeypatch)
    rep = verify_chevalley_jacobi(alg)
    d = alg.dimension
    assert rep.ok and rep.triples_checked == d * (d - 1) * (d - 2) // 6
    assert len(calls) == count


@pytest.mark.parametrize(
    "T, count",
    [
        (catalog_get("j3o-norm").tensor(), 438),
        (catalog_get("pfaff6").tensor(), 90),
        (catalog_get("det3").tensor(), 36),
        (SymCubic(200, {(i, i, i): 1 for i in range(200)}), 0),
        (SymCubic(1000, {(i, i, i): 1 for i in range(1000)}), 0),
    ],
    ids=["j3o-norm", "pfaff6", "det3", "diagonal-200", "diagonal-1000"],
)
def test_jacobiator_count_n(T, count, monkeypatch):
    calls = _count_jacobiators(monkeypatch)
    # The walk enumerates only pairs above the positions met, so it
    # evaluates each pair _pairs_through returns.
    pairs = []
    real = nilpotent._pairs_through

    def counted(*args):
        out = real(*args)
        pairs.append(len(out))
        return out

    monkeypatch.setattr(nilpotent, "_pairs_through", counted)
    rep = verify_jacobi(T)
    assert rep.ok
    d = n_dim(T.dim)
    assert rep.triples_checked == d * (d - 1) * (d - 2) // 6
    assert len(calls) == sum(pairs) == count


def _chevalley_kernel_and_reference(monkeypatch, edit, key=("B", 3)):
    """Edit a private Chevalley table (B3 by default); the kernel's and
    the reference's violations, each with its count of jacobiator calls."""
    alg = chevalley(build_root_system(*key))
    rows = alg.table()
    edit(alg, rows)
    calls = _count_jacobiators(monkeypatch)
    violations = verify_chevalley_jacobi(alg).violations
    kernel_calls = len(calls)
    reference = tuple(
        tuple(alg.labels[i] for i in v) for v in _ungraded_violations(rows)
    )
    return violations, kernel_calls, reference, len(calls) - kernel_calls


def _walk_calls(monkeypatch, rows):
    """The jacobiators the walk alone evaluates on ``rows``."""
    calls = _count_jacobiators(monkeypatch)
    list(nilpotent.jacobi_violations(rows))
    return len(calls)


def _double_both_orientations(rows, a, b):
    for x, y in ((a, b), (b, a)):
        rows[x][y] = tuple((k, 2 * c) for k, c in rows[x][y])


def test_graded_mutant_breaks_jacobi_on_both_orientations(monkeypatch):
    # Double [e_a, e_b] and [e_b, e_a]: antisymmetric, with the same term
    # positions, so the walk evaluates the same triples as on the clean
    # table.  The generator pass stops at its first nonzero jacobiator,
    # and the walk follows.
    def edit(alg, rows):
        a, b = next(
            (i, j) for i, row in enumerate(rows) for j in row
            if i < j and alg.labels[i][0] == alg.labels[j][0] == "e"
        )
        _double_both_orientations(rows, a, b)

    clean = _chevalley_kernel_and_reference(monkeypatch, lambda alg, rows: None)
    walk = _walk_calls(monkeypatch, chevalley(build_root_system("B", 3)).table())
    violations, calls, reference, reference_calls = _chevalley_kernel_and_reference(
        monkeypatch, edit
    )
    assert violations and violations == reference
    assert all(len(v) == 3 for v in violations)
    assert clean[1] < walk < calls <= walk + clean[1]
    assert calls < reference_calls


def test_non_generator_mutant_falls_back_to_the_walk(monkeypatch):
    # Double N on two non-simple positive roots of E6, in both
    # orientations: antisymmetric, every e_{+-alpha_i} untouched, yet
    # Jacobi fails, so some ad e_{+-alpha_i} is no derivation.
    def edit(alg, rows):
        nonsimple = [i for i in range(alg.rs.rank, len(rows))
                     if sum(alg.labels[i][1]) > 1]
        a, b = next((i, j) for i in nonsimple for j in sorted(rows[i])
                    if i < j and j in nonsimple)
        _double_both_orientations(rows, a, b)

    violations, calls, reference, _ = _chevalley_kernel_and_reference(
        monkeypatch, edit, key=("E", 6)
    )
    assert len(violations) == 41 and violations == reference
    assert calls > _walk_calls(monkeypatch, algebra_for("E", 6).table())


def test_generation_failure_falls_back_to_the_walk(monkeypatch):
    # Without [e_{alpha_1}, e_{-alpha_1}] no single-term bracket of the
    # generators reaches h_1: the generator pass does not start, and only
    # the walk's jacobiators are evaluated.
    def edit(alg, rows):
        generators = alg.simple_root_vectors()
        e, f = generators[0], generators[alg.rs.rank]
        del rows[e][f], rows[f][e]

    violations, calls, reference, _ = _chevalley_kernel_and_reference(monkeypatch, edit)
    assert violations and violations == reference
    alg = chevalley(build_root_system("B", 3))
    rows = alg.table()
    edit(alg, rows)
    assert not nilpotent._generates(rows, alg.simple_root_vectors())
    assert calls == _walk_calls(monkeypatch, rows)


def test_central_generators_certify_nothing():
    # b_0 and b_1 bracket to zero with everything, so ad of each is a
    # derivation, but they generate only their span: the violations
    # outside it are found by the walk.
    rows = [{}, {}] + [
        {j + 2: tuple((k + 2, c) for k, c in terms) for j, terms in row.items()}
        for row in _FIRST_PASSING_ROTATION_TABLE
    ]
    violations = list(nilpotent.jacobi_violations(rows, [0, 1]))
    assert (2, 3, 4) in violations
    assert violations == list(_ungraded_violations(rows))


def test_nonhomogeneous_mutant_is_caught_without_a_grading(monkeypatch):
    # [h_0, h_1] = e_beta = -[h_1, h_0]: antisymmetric, but off the root
    # grading.  h_2 stores e_beta, so (h_0, h_1, h_2) is a candidate
    # triple and the kernel finds it, still evaluating fewer triples
    # than the ungraded walk.
    def edit(alg, rows):
        h2 = alg.labels[2]
        beta = next(
            i for i, lab in enumerate(alg.labels)
            if lab[0] == "e" and alg.bracket_labels(h2, lab)
        )
        rows[0][1] = ((beta, 1),)
        rows[1][0] = ((beta, -1),)

    violations, calls, reference, reference_calls = _chevalley_kernel_and_reference(
        monkeypatch, edit
    )
    h0, h1, h2 = (("h", i) for i in range(3))
    assert (h0, h1, h2) in violations
    assert violations == reference
    assert all(len(v) == 3 for v in violations)
    assert calls < reference_calls


_FIRST_PASSING_ROTATION_TABLE = [
    {1: ((3, 1),), 4: ((0, 1),)},
    {0: ((3, -1),), 2: ((4, 1),)},
    {1: ((4, -1),)},
    {},
    {0: ((0, -1),)},
]


def test_kernel_evaluates_a_triple_from_its_first_passing_rotation():
    # [b_0, b_1] = b_3, which no row stores: the first rotation (2; 0, 1)
    # of (0, 1, 2) is stored but cannot be nonzero.  [b_1, b_2] = b_4,
    # which row 0 stores, makes the second, (0; 1, 2), nonzero.  A kernel
    # that took each triple from its first stored rotation would miss it.
    rows = _FIRST_PASSING_ROTATION_TABLE
    violations = list(nilpotent.jacobi_violations(rows))
    assert (0, 1, 2) in violations
    assert violations == list(_ungraded_violations(rows))


_ONE_SIDED_ROTATION_TABLE = [
    {},
    {3: ((4, 1),)},
    {0: ((3, 1),)},
    {},
    {},
]


def test_kernel_reads_a_one_sided_rotation_in_the_jacobiators_orientation():
    # [b_2, b_0] = b_3 is stored, [b_0, b_2] is not, and [b_1, b_3] = b_4:
    # the only nonzero rotation of (0, 1, 2) is (1; 2, 0).  Row 0 is
    # empty, so a kernel that read [b_0, b_2] for it would miss the
    # triple.
    rows = _ONE_SIDED_ROTATION_TABLE
    violations = list(nilpotent.jacobi_violations(rows))
    assert (0, 1, 2) in violations
    assert violations == list(_ungraded_violations(rows))
