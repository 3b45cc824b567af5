from fractions import Fraction as F

import pytest

from cubicontact.chevalley import chevalley
from cubicontact.cubic import SymCubic, b_rank
from cubicontact.extraction import (
    ExtractionError,
    _mat_vec_cols,
    _sparse_columns,
    algebra_for,
    double_grading,
    extract_cubic,
    extraction,
    five_step_grading,
    gradings_report,
    ternary_dimension_check,
    verify_embedding,
    verify_pairings,
)
from cubicontact.rootsystems import TypeARejection, build_root_system


def test_five_step_dims_g2(g2):
    _pieces, dims = five_step_grading(g2)
    assert dims == (1, 4, 4, 4, 1)


def test_five_step_dims_e8(e8):
    _pieces, dims = five_step_grading(e8)
    assert dims == (1, 56, 134, 56, 1)


def test_five_step_extremes_are_root_lines(f4):
    pieces, _dims = five_step_grading(f4)
    assert pieces[2] == [("e", f4.rs.highest_root)]


EXPECTED_P = {("G", 2): 1, ("F", 4): 6, ("E", 6): 9, ("E", 7): 15, ("E", 8): 27}


@pytest.mark.parametrize("key", sorted(EXPECTED_P))
def test_double_grading_p(key):
    alg = algebra_for(*key)
    dg = double_grading(alg)
    assert dg.dim_p() == EXPECTED_P[key]
    assert len(dg.piece(1, 0)) == EXPECTED_P[key]
    assert len(dg.piece(0, 1)) == EXPECTED_P[key]
    assert len(dg.piece(2, 1)) == 1 and len(dg.piece(1, 2)) == 1


def test_alpha_piece_has_grading_one_minus_one(f4):
    dg = double_grading(f4)
    assert ("e", dg.alpha) in dg.piece(1, -1)


def test_grading_additivity_of_brackets(g2):
    dg = double_grading(g2)
    grade = dict(dg.assignment)
    labels = g2.labels
    for la in labels:
        for lb in labels:
            out = g2.bracket_labels(la, lb)
            want = (
                grade[la][0] + grade[lb][0],
                grade[la][1] + grade[lb][1],
            )
            for lc, coeff in out.items():
                if coeff:
                    assert grade[lc] == want


@pytest.mark.parametrize("key", sorted(EXPECTED_P))
def test_pairings_perfect(key):
    alg = algebra_for(*key)
    rep = verify_pairings(alg)
    assert rep.perfect
    assert rep.p == EXPECTED_P[key]


def test_extract_g2_normalizes_to_x3(g2):
    T = extract_cubic(g2)
    assert T == SymCubic(1, {(0, 0, 0): 1})


@pytest.mark.parametrize("key", sorted(EXPECTED_P))
def test_extracted_assumption(key):
    alg = algebra_for(*key)
    T = extract_cubic(alg)
    assert T.dim == EXPECTED_P[key]
    assert b_rank(T) == T.dim


def test_embedding_g2_f4(g2, f4):
    for alg, dim_n in ((g2, 5), (f4, 20)):
        rep = verify_embedding(alg)
        assert rep.ok
        assert rep.dim_n == dim_n
        assert rep.pairs_checked == dim_n * dim_n


@pytest.mark.parametrize("key", [("E", 6), ("E", 7), ("E", 8)])
def test_embedding_e_series(key):
    alg = algebra_for(*key)
    rep = verify_embedding(alg)
    assert rep.ok
    assert rep.dim_n == 3 * EXPECTED_P[key] + 2
    assert rep.pairs_checked == rep.dim_n * rep.dim_n


def _dense_raw_tensor(alg, data):
    """The raw cubic by dense Fraction contraction over every entry."""
    p = data.p
    phi_mat, m_upper = data.phi_mat, data.m_upper
    y_index = {lab: i for i, lab in enumerate(data.y_basis)}
    phi_vecs = [
        {data.z_basis[b]: phi_mat[a][b] for b in range(p) if phi_mat[a][b]}
        for a in range(p)
    ]
    contracted = [[None] * p for _ in range(p)]
    for b in range(p):
        for c in range(p):
            vec = [F(0)] * p
            for lab, coeff in alg.bracket(phi_vecs[b], {data.x_basis[c]: F(1)}).items():
                vec[y_index[lab]] = F(coeff)
            contracted[b][c] = [
                sum((m_upper[d][e] * vec[e] for e in range(p)), F(0))
                for d in range(p)
            ]

    def f_val(a, b, c):
        return sum((phi_mat[a][d] * contracted[b][c][d] for d in range(p)), F(0))

    entries = {}
    for a in range(p):
        for b in range(a, p):
            for c in range(b, p):
                total = sum(
                    f_val(*perm)
                    for perm in ((a, b, c), (a, c, b), (b, a, c),
                                 (b, c, a), (c, a, b), (c, b, a))
                )
                if total:
                    entries[(a, b, c)] = total * F(1, 6)
    return SymCubic(p, entries)


@pytest.mark.parametrize("key", sorted(EXPECTED_P))
def test_sparse_contraction_matches_dense(key):
    alg = algebra_for(*key)
    data = extraction(alg)
    assert data.raw_tensor == _dense_raw_tensor(alg, data)


def test_sparse_mat_vec_matches_dense():
    m = [[F(0), F(2), F(0)], [F(-1, 3), F(0), F(5)], [F(0), F(0), F(0)]]
    for v in ([F(1), F(2), F(3)], [F(0), F(0), F(7, 2)], [F(0)] * 3):
        dense = [sum(m[r][c] * v[c] for c in range(3)) for r in range(3)]
        assert _mat_vec_cols(_sparse_columns(m), v) == dense


def test_extraction_memoized_per_algebra(g2):
    private = chevalley(build_root_system("G", 2))
    data = extraction(private)
    assert extraction(private) is data
    assert extraction(g2) is not data


TERNARY = {("G", 2): 0, ("F", 4): 8, ("E", 6): 16, ("E", 7): 35, ("E", 8): 78}


@pytest.mark.parametrize("key", sorted(TERNARY))
def test_ternary_dimensions(key):
    alg = algebra_for(*key)
    rep = ternary_dimension_check(alg)
    assert rep["dim_h"] == TERNARY[key]
    assert rep["dim_g"] - 8 - 6 * rep["p"] == TERNARY[key]


def test_type_c_rejected_with_dimension_diagnostic():
    alg = algebra_for("C", 3)
    with pytest.raises(ExtractionError) as err:
        extraction(alg)
    assert "dims" in str(err.value)


def test_type_a_rejected_through_find_alpha():
    alg = algebra_for("A", 3)
    with pytest.raises(TypeARejection):
        extraction(alg)


def test_b_and_d_series_supported():
    for key, p in ((("B", 3), 2), (("B", 4), 4), (("D", 4), 3), (("D", 5), 5)):
        alg = algebra_for(*key)
        data = extraction(alg)
        assert data.p == p
        assert b_rank(data.tensor) == p
        rep = gradings_report(alg)
        assert rep["p"] == p and rep["b_rank"] == p


def test_gradings_report_shape(g2):
    rep = gradings_report(g2)
    assert rep["type"] == "G2"
    assert rep["dim_g"] == 14
    assert rep["five_step_dims"] == [1, 4, 4, 4, 1]
    assert rep["p"] == 1
