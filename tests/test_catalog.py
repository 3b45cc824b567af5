import itertools
from fractions import Fraction as F

import pytest
from conftest import sparse_rows

from cubicontact.catalog import (
    catalog_get,
    catalog_list,
    compare_signatures,
    compare_to_extraction,
    _cd_sign,
    det3_cubic,
    det_sym3_cubic,
    j3o_norm_cubic,
    octonion_table,
    pfaff6_cubic,
    signature,
    xq_cubic,
)
from cubicontact.cubic import b_rank, cubic_eval, from_cubic_monomials
from cubicontact.sampling import SeededSampler


def test_catalog_names_and_dims():
    entries = {e.name: e.p for e in catalog_list()}
    assert entries == {
        "x3": 1, "xq5": 5, "xyz": 3, "fermat3": 3,
        "det-sym-3": 6, "det3": 9, "pfaff6": 15, "j3o-norm": 27,
    }


def test_builders_deterministic():
    for entry in catalog_list():
        assert entry.tensor() == entry.tensor()


def test_every_entry_satisfies_assumption():
    for entry in catalog_list():
        T = entry.tensor()
        assert T.dim == entry.p
        assert b_rank(T) == entry.p, entry.name


def test_x3_entry():
    T = catalog_get("x3").tensor()
    assert T.entries == {(0, 0, 0): F(1)}


def test_det_sym3_at_identity():
    T = det_sym3_cubic()
    v = (F(1), F(1), F(1), F(0), F(0), F(0))
    assert cubic_eval(T, v) == 6


def test_det_sym3_matches_determinant_on_samples():
    T = det_sym3_cubic()
    sampler = SeededSampler(41)
    for _ in range(20):
        a, b, c, d, e, f = [sampler.fraction() for _ in range(6)]
        det = (
            a * b * c + 2 * d * e * f - a * f * f - b * e * e - c * d * d
        )
        assert cubic_eval(T, (a, b, c, d, e, f)) == 6 * det


def test_pfaffian_at_standard_symplectic_form():
    T = pfaff6_cubic()
    v = [F(0)] * 15
    # pairs (0,1), (2,3), (4,5) are entries 0, 9, 14 in i<j order.
    v[0] = F(1)
    v[9] = F(1)
    v[14] = F(1)
    assert cubic_eval(T, tuple(v)) == 6


def test_pfaffian_squares_to_determinant():
    # Classical identity pf(A)^2 = det(A) for skew matrices.
    from cubicontact.linalg import mat_det

    T = pfaff6_cubic()
    sampler = SeededSampler(42)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    for _ in range(5):
        coords = sampler.vector(15)
        mat = [[F(0)] * 6 for _ in range(6)]
        for (i, j), val in zip(pairs, coords):
            mat[i][j] = val
            mat[j][i] = -val
        pf = cubic_eval(T, coords) / 6
        assert pf * pf == mat_det(sparse_rows(mat))


def test_octonion_table_shape():
    table = octonion_table()
    for i in range(1, 8):
        assert table[i][i] == (0, -1)
        assert table[0][i] == (i, 1)
        assert table[i][0] == (i, 1)


def _ref_cd_mul(x, y):
    """Cayley-Dickson doubling, (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)),
    on coordinate vectors of power-of-two length: the reference for the
    index rule."""
    n = len(x)
    if n == 1:
        return [x[0] * y[0]]
    h = n // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]

    def conj(z):
        return [z[0]] + [-t for t in z[1:]]

    ac, db = _ref_cd_mul(a, c), _ref_cd_mul(conj(d), b)
    da, bc = _ref_cd_mul(d, a), _ref_cd_mul(b, conj(c))
    return [s - t for s, t in zip(ac, db)] + [s + t for s, t in zip(da, bc)]


def _ref_basis_product(i, j, n):
    """The nonzero coordinates of e_i e_j under the doubling recursion."""
    e = [[int(t == k) for t in range(n)] for k in range(n)]
    return [(k, v) for k, v in enumerate(_ref_cd_mul(e[i], e[j])) if v]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_cd_sign_matches_doubling_on_every_basis_product(n):
    for i in range(n):
        for j in range(n):
            assert _ref_basis_product(i, j, n) == [(i ^ j, _cd_sign(i, j, n))], (i, j)


def test_octonion_table_matches_doubling():
    table = octonion_table()
    assert [[[entry] for entry in row] for row in table] == [
        [_ref_basis_product(i, j, 8) for j in range(8)] for i in range(8)
    ]


def octonion_mul(x, y):
    """Product of two octonions given as 8-coordinate sequences, read off
    octonion_table(), the table j3o-norm is built from."""
    assert len(x) == len(y) == 8
    out = [0] * 8
    for i, row in enumerate(octonion_table()):
        for j, (k, sign) in enumerate(row):
            out[k] += sign * x[i] * y[j]
    return out


def _ref_perm_sign(perm):
    """(-1) to the number of inversions."""
    inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2))
    return (-1) ** inversions


def test_det3_matches_permutation_expansion():
    monomials = {
        tuple(3 * r + perm[r] for r in range(3)): _ref_perm_sign(perm)
        for perm in itertools.permutations(range(3))
    }
    assert det3_cubic() == from_cubic_monomials(9, monomials, scale=6)


def octonion_norm(x):
    return sum(t * t for t in x)


def test_octonion_composition_law():
    sampler = SeededSampler(43)
    for _ in range(20):
        x = [sampler.fraction() for _ in range(8)]
        y = [sampler.fraction() for _ in range(8)]
        assert octonion_norm(octonion_mul(x, y)) == octonion_norm(
            x
        ) * octonion_norm(y)


def test_octonion_trace_associativity():
    sampler = SeededSampler(44)
    for _ in range(20):
        x = [sampler.fraction() for _ in range(8)]
        y = [sampler.fraction() for _ in range(8)]
        z = [sampler.fraction() for _ in range(8)]
        left = octonion_mul(octonion_mul(x, y), z)[0]
        right = octonion_mul(x, octonion_mul(y, z))[0]
        assert left == right


def test_j3o_restricts_to_symmetric_determinant():
    # Real off-diagonal entries reduce the octonion norm to det-sym-3.
    Tj = j3o_norm_cubic()
    Ts = det_sym3_cubic()
    sampler = SeededSampler(45)
    for _ in range(15):
        l1, l2, l3, x23, x13, x12 = [sampler.fraction() for _ in range(6)]
        big = [F(0)] * 27
        big[0], big[1], big[2] = l1, l2, l3
        big[3] = x23   # a1 real part
        big[11] = x13  # a2 real part
        big[19] = x12  # a3 real part
        small = (l1, l2, l3, x12, x13, x23)
        assert cubic_eval(Tj, tuple(big)) == cubic_eval(Ts, small)


def test_xq_shape():
    T = xq_cubic(4)
    assert T.dim == 4
    assert b_rank(T) == 4
    # c = 3 x q(y) under the full-sum convention.
    assert cubic_eval(T, (F(1), F(1), F(2), F(0))) == 3 * (1 + 4)


def test_signature_determinism_and_fields():
    T = catalog_get("xyz").tensor()
    a = signature(T)
    b = signature(T)
    assert a == b
    assert set(a) == {"p", "b_rank", "probe", "nnz_normalized", "eval_hash", "cubic_hash"}


def test_expected_probe_classes():
    for entry in catalog_list():
        sig = signature(entry.tensor())
        assert sig["probe"] == entry.expected_signature["probe"], entry.name


def test_compare_signatures_mismatch_detection():
    sig_a = {"p": 1, "b_rank": 1, "probe": "none-found"}
    sig_b = {"p": 6, "b_rank": 6, "probe": "witness-found"}
    rep = compare_signatures(sig_a, sig_b)
    assert not rep["consistent"]
    assert {m["field"] for m in rep["mismatches"]} == {"p", "b_rank", "probe"}


def test_compare_to_extraction_g2(g2):
    rep = compare_to_extraction(catalog_get("x3"), g2)
    assert rep["consistent"]
    rep2 = compare_to_extraction(catalog_get("xyz"), g2)
    assert not rep2["consistent"]


def test_catalog_get_unknown():
    with pytest.raises(KeyError):
        catalog_get("nope")
