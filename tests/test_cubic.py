import hashlib
import importlib
from fractions import Fraction as F

import pytest
from conftest import sparse_rows
from hypothesis import given, settings, strategies as st
from test_scalar_references import RefQPoly

from cubicontact.catalog import catalog_get, catalog_list
from cubicontact.cubic import (
    DimensionMismatchError,
    ReductionError,
    SymCubic,
    TensorFormatError,
    b_rank,
    cubic_eval,
    cubic_hash,
    dumps_tensor,
    from_cubic_monomials,
    loads_tensor,
    normalize_cubic,
    polarize,
    reduce_mod,
    trilinear,
)
from cubicontact.extraction import extraction
from cubicontact.linalg import mat_det, mat_inv, mat_mul, mat_rank
from cubicontact.sampling import SeededSampler

cubic_module = importlib.import_module("cubicontact.cubic")

X3 = SymCubic(1, {(0, 0, 0): 1})
FERMAT3 = SymCubic(3, {(i, i, i): 1 for i in range(3)})
ZERO2 = SymCubic(2, {})


def vec(*xs):
    return tuple(F(x) for x in xs)


def test_eval_zero_vector():
    assert cubic_eval(X3, vec(0)) == 0


def test_eval_x3_at_two():
    assert cubic_eval(X3, vec(2)) == 8


def test_eval_fermat_ones():
    assert cubic_eval(FERMAT3, vec(1, 1, 1)) == 3


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cubic_eval(X3, vec(1, 2))


def test_polarize_x3():
    assert polarize(X3, vec(1), vec(1)) == vec(1)


def test_polarize_zero_argument():
    assert polarize(FERMAT3, vec(0, 0, 0), vec(1, 2, 3)) == vec(0, 0, 0)


def test_polarize_fermat_mixed_basis():
    assert polarize(FERMAT3, vec(1, 0, 0), vec(0, 1, 0)) == vec(0, 0, 0)


def test_b_rank_values():
    assert b_rank(X3) == 1
    assert b_rank(ZERO2) == 0
    assert b_rank(FERMAT3) == 3


def _dense_b_rank(T):
    """Every row B(e_i, e_j), i <= j, dense: the construction b_rank replaced."""
    p = T.dim
    return mat_rank(sparse_rows([[T.value(i, j, k) for k in range(p)] for i in range(p) for j in range(i, p)]))


B_RANK_CUBICS = tuple(e.name for e in catalog_list()) + ("G2", "F4", "E6")


@pytest.mark.parametrize("name", B_RANK_CUBICS)
def test_b_rank_matches_dense_rows(name, request):
    if name in ("G2", "F4", "E6"):
        T = extraction(request.getfixturevalue(name.lower())).tensor
    else:
        T = catalog_get(name).tensor()
    assert b_rank(T) == _dense_b_rank(T)
    half = T.scale(F(5, 7))
    assert b_rank(half) == _dense_b_rank(half)


def test_b_rank_builds_rows_only_for_occurring_pairs(monkeypatch):
    seen = []

    def recording(rows):
        seen.append([len(r) for r in rows])
        return mat_rank(rows)

    monkeypatch.setattr(cubic_module, "mat_rank", recording)
    assert b_rank(SymCubic(100_000, {})) == 0
    # One entry: the pairs (0, 1), (0, 99999), (1, 99999), one stored
    # entry each.
    assert b_rank(SymCubic(100_000, {(0, 1, 99_999): 1})) == 3
    assert seen == [[], [1, 1, 1]]


def test_grouped_and_scaled_tables():
    T = SymCubic(3, {(0, 0, 1): F(1, 2), (1, 2, 2): 2, (0, 1, 2): F(-1, 3)})
    d, rows = T.scaled()
    assert d == 6
    assert all(type(v) is int for row in rows for _j, _k, v in row)
    # Row i over d holds T(i, j, k) once for every ordered permutation
    # (i, j, k) of an entry, in the order of the sorted entries.
    for i, row in enumerate(rows):
        want = {(j, k): T.value(i, j, k) for j in range(3) for k in range(3) if T.value(i, j, k)}
        assert len(row) == len(want) and {(j, k): F(v, d) for j, k, v in row} == want
    assert rows[0] == ((0, 1, 3), (1, 0, 3), (1, 2, -2), (2, 1, -2))
    assert sum(len(r) for r in rows) == 3 + 3 + 6


def test_eval_equals_polarization_on_diagonal():
    sampler = SeededSampler(3)
    T = SymCubic(3, {(0, 0, 1): F(1, 2), (1, 2, 2): 2, (0, 1, 2): -1})
    for _ in range(30):
        v = sampler.vector(3)
        cov = polarize(T, v, v)
        assert cubic_eval(T, v) == sum(c * x for c, x in zip(cov, v))


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
vec3 = st.tuples(small_fracs, small_fracs, small_fracs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=small_fracs, u=vec3, w=vec3, v=vec3)
def test_polarize_bilinear_symmetric(a, u, w, v):
    T = SymCubic(3, {(0, 0, 1): F(1, 2), (1, 2, 2): 2, (0, 1, 2): -1})
    au_w = tuple(a * x + y for x, y in zip(u, w))
    left = polarize(T, au_w, v)
    right = tuple(
        a * x + y for x, y in zip(polarize(T, u, v), polarize(T, w, v))
    )
    assert left == right
    assert polarize(T, u, v) == polarize(T, v, u)


def _unimodular(sampler, p):
    # Random product of elementary shears: determinant one, exact inverse.
    m = [[F(1) if i == j else F(0) for j in range(p)] for i in range(p)]
    for _ in range(3 * p):
        i = sampler.int_range(0, p - 1)
        j = sampler.int_range(0, p - 1)
        if i == j:
            continue
        c = F(sampler.int_range(-2, 2))
        for k in range(p):
            m[i][k] += c * m[j][k]
    return m


def _change_basis(T, m):
    # Entries of the pulled back tensor are T(m e_a, m e_b, m e_c).
    p = T.dim
    cols = [[m[i][j] for i in range(p)] for j in range(p)]
    entries = {}
    for a in range(p):
        for b in range(a, p):
            for c in range(b, p):
                val = trilinear(T, cols[a], cols[b], cols[c])
                if val:
                    entries[(a, b, c)] = val
    return SymCubic(p, entries)


def test_b_rank_computed_once_per_tensor(monkeypatch):
    from cubicontact.reports import RunConfig
    from cubicontact.verify import run_verification

    calls = []
    real = mat_rank
    monkeypatch.setattr(cubic_module, "mat_rank", lambda rows: calls.append(rows) or real(rows))
    T = SymCubic(3, {(0, 0, 0): 1, (0, 1, 1): F(1, 2)})
    assert b_rank(T) == 2 and b_rank(T) == 2
    assert not cubic_module.assumption_holds(T)
    # The refusal record reads the rank that assumption_holds cached.
    report = run_verification(T, ["jacobi", "contact"], RunConfig(seed=0))
    assert report.checks[1]["details"]["b_rank"] == 2
    assert len(calls) == 1
    assert b_rank(T.scale(2)) == 2 and len(calls) == 2


def _fraction_cubic_eval(T, v):
    """c(v) as a Fraction sum over the canonical entries, as a reference."""
    total = F(0)
    for tri, val in T.entries.items():
        i, j, k = tri
        prod = v[i] * v[j] * v[k]
        if prod:
            total = total + cubic_module.perm_multiplicity(tri) * val * prod
    return total


def _fraction_trilinear(T, u, v, w):
    """c(u, v, w) summed over every ordering of every entry, as a reference."""
    total = F(0)
    for tri, val in T.entries.items():
        for i, j, k in cubic_module._distinct_perms(tri):
            total = total + val * u[i] * v[j] * w[k]
    return total


@st.composite
def _cubic_and_vector(draw):
    p = draw(st.integers(1, 6))
    index = st.integers(0, p - 1)
    entries = draw(st.dictionaries(st.tuples(index, index, index), small_fracs, max_size=12))
    T = SymCubic(p, {tuple(sorted(t)): c for t, c in entries.items()})
    return T, draw(st.lists(st.just(F(0)) | small_fracs, min_size=p, max_size=p))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_cubic_and_vector())
def test_cubic_eval_integer_path_matches_fraction_sum(case):
    T, v = case
    value = cubic_eval(T, v)
    assert type(value) is F and value == _fraction_cubic_eval(T, v)
    # Int coordinates clear as rationals (scalars.clear_denominators), so
    # polarize and dot run their int walks on them and give a Fraction.
    ints = [int(x) for x in v]
    value = cubic_eval(T, ints)
    assert type(value) is F and value == _fraction_cubic_eval(T, [F(x) for x in ints])
    # trilinear is B(v1, v2) . v3 on the same kernel.
    shifted = v[1:] + v[:1]
    assert trilinear(T, v, shifted, ints) == _fraction_trilinear(T, v, shifted, ints)
    # Any other coordinate is refused, a RefQPoly's too.
    qv = [RefQPoly((a, b)) for a, b in zip(v, shifted)]
    with pytest.raises(TypeError):
        cubic_eval(T, qv)
    with pytest.raises(TypeError):
        trilinear(T, v, v, qv)


def test_b_rank_invariant_under_unimodular_change():
    sampler = SeededSampler(11)
    T = FERMAT3
    for _ in range(5):
        m = _unimodular(sampler, 3)
        assert b_rank(_change_basis(T, m)) == 3


def test_reduce_mod_integer_entries():
    ff = reduce_mod(X3, 5)
    assert ff.entries == (((0, 0, 0), 1),)


def test_reduce_mod_inverts_denominator():
    T = SymCubic(1, {(0, 0, 0): F(1, 2)})
    ff = reduce_mod(T, 7)
    assert ff.entries == (((0, 0, 0), 4),)


def test_reduce_mod_rejects_bad_denominator():
    T = SymCubic(1, {(0, 0, 0): F(1, 2)})
    with pytest.raises(ReductionError) as err:
        reduce_mod(T, 2)
    assert err.value.triple == (0, 0, 0)


def test_json_roundtrip_and_hash_stability():
    T = SymCubic(3, {(0, 0, 1): F(3, 2), (1, 2, 2): -2})
    text = dumps_tensor(T)
    assert '"value":"3/2"' in text
    back = loads_tensor(text)
    assert back == T
    assert cubic_hash(back) == cubic_hash(T)


def test_cubic_hash_computed_once_per_tensor(monkeypatch):
    # One verify run reads the hash for its file name, its report and
    # several suites' records: the canonical JSON is written once.
    from cubicontact.reports import RunConfig
    from cubicontact.verify import SUITES, run_verification

    calls = []
    real = cubic_module.dumps_tensor
    monkeypatch.setattr(cubic_module, "dumps_tensor", lambda T: calls.append(T) or real(T))
    T = catalog_get("det3").tensor()
    expected = hashlib.sha256(real(T).encode("ascii")).hexdigest()
    report = run_verification(T, tuple(SUITES), RunConfig(seed=7, samples=2, probe_budget=200))
    assert report.cubic_hash == cubic_hash(T) == expected and len(calls) == 1
    assert cubic_hash(T.scale(2)) != expected and len(calls) == 2


def test_json_rejects_garbage():
    with pytest.raises(TensorFormatError):
        loads_tensor("not json")
    with pytest.raises(TensorFormatError):
        loads_tensor('{"dim": 2}')
    with pytest.raises(TensorFormatError):
        loads_tensor('{"dim": 2, "entries": [{"i": 2, "j": 1, "k": 1, "value": "1"}]}')


def test_json_rejects_integers_past_the_digit_limit():
    big = "1" + "0" * 5000
    with pytest.raises(TensorFormatError):
        loads_tensor('{"dim": %s, "entries": []}' % big)
    with pytest.raises(TensorFormatError):
        loads_tensor('{"dim": 1, "entries": [{"i": 1, "j": 1, "k": 1, "value": %s}]}' % big)


@pytest.mark.parametrize("value", ["1e400000000", "2E3", "-1.5e-2", "1/1e3"])
def test_json_rejects_exponent_notation(value):
    with pytest.raises(TensorFormatError):
        loads_tensor('{"dim": 1, "entries": [{"i": 1, "j": 1, "k": 1, "value": "%s"}]}' % value)
    with pytest.raises(ValueError):
        SymCubic(1, {(0, 0, 0): value})


def test_from_cubic_monomials_full_sum_scaling():
    # det of symmetric 3x3 via monomials: value 6 at the identity under
    # the integer symmetrization convention.
    monos = {(0, 1, 2): 1, (3, 4, 5): 2, (0, 5, 5): -1, (1, 4, 4): -1, (2, 3, 3): -1}
    T = from_cubic_monomials(6, monos, scale=6)
    assert cubic_eval(T, vec(1, 1, 1, 0, 0, 0)) == 6
    assert all(v.denominator == 1 for v in T.entries.values())


def test_normalize_cubic():
    T = SymCubic(2, {(0, 0, 1): F(-3)})
    norm, scalar = normalize_cubic(T)
    assert scalar == -3
    assert norm.entries == {(0, 0, 1): F(1)}


def test_linalg_rank_det_solve():
    a = sparse_rows([[F(2), F(1)], [F(1), F(1)]])
    assert mat_rank(a) == 2
    assert mat_det(a) == 1
    assert mat_mul(mat_inv(a), sparse_rows([[F(3)], [F(2)]])) == sparse_rows([[F(1)], [F(1)]])
    assert mat_mul(a, mat_inv(a)) == sparse_rows([[F(1), F(0)], [F(0), F(1)]])
    assert mat_det(sparse_rows([[F(0), F(1)], [F(0), F(2)]])) == 0
    assert mat_rank(sparse_rows([[F(1), F(2)], [F(2), F(4)]])) == 1
