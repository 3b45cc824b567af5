import dataclasses
from fractions import Fraction as F

import pytest
from conftest import sparse_rows

from cubicontact.chevalley import chevalley
from cubicontact.cubic import SymCubic, b_rank
from cubicontact.extraction import (
    ExtractionError,
    _distinguished,
    _image_bracket,
    _theta,
    algebra_for,
    double_grading,
    extraction,
    gradings_report,
    ternary_dimension_check,
    verify_embedding,
)
from cubicontact.linalg import _solve_augmented, mat_inv, mat_mul, mat_rank
from cubicontact.nilpotent import bracket_table, n_dim
from cubicontact.rootsystems import TypeARejection, build_root_system
from cubicontact.scalars import Q0


def test_five_step_dims_g2(g2):
    assert double_grading(g2).five_step_dims() == (1, 4, 4, 4, 1)


def test_five_step_dims_e8(e8):
    assert double_grading(e8).five_step_dims() == (1, 56, 134, 56, 1)


def test_five_step_extremes_are_root_lines(f4):
    dg = double_grading(f4)
    top = [lab for lab, (a, _b) in dg.assignment if a == 2]
    assert top == [("e", f4.rs.highest_root)]


@pytest.mark.parametrize("bad", [3, 2], ids=["outside-range", "extreme-plane"])
def test_psi_grading_checks_raise(bad):
    """A psi-pairing out of -2..2, or a second root in degree 2, is rejected."""
    alg = chevalley(build_root_system("G", 2))
    rs = alg.rs
    psi = rs.highest_root
    victim = next(b for b in rs.pos_roots if rs.pairing(b, psi) == 1)
    # Scaling the victim's simple-coroot pairings scales <victim, psi^vee>
    # from 1 to bad.
    v = alg.index["e", victim]
    alg.pairings[v] = tuple(bad * c for c in alg.pairings[v])
    match = "outside -2..2" if bad == 3 else "extreme grading pieces not lines"
    with pytest.raises(ExtractionError, match=match):
        extraction(alg)


EXPECTED_P = {("G", 2): 1, ("F", 4): 6, ("E", 6): 9, ("E", 7): 15, ("E", 8): 27}


@pytest.mark.parametrize("key", sorted(EXPECTED_P))
def test_double_grading_p(key):
    alg = algebra_for(*key)
    dg = double_grading(alg)
    assert len(dg.piece(1, 1)) == EXPECTED_P[key]
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


def _pairing_matrix(alg, left_labels, mid_labels, target_label):
    """Dense M[i][j] = coefficient of target in [left_i, mid_j]."""
    rows = []
    for la in left_labels:
        row = []
        for lb in mid_labels:
            br = alg.bracket_labels(la, lb)
            assert set(br) <= {target_label}
            row.append(F(br.get(target_label, 0)))
        rows.append(row)
    return rows


def verify_pairings(alg):
    """(p, rank of g(0,1) x g(1,1) -> g(1,2), rank of g(1,0) x g(1,1) -> g(2,1))."""
    x_basis, z_basis, y_basis, psi, psi_alpha = _distinguished(alg, double_grading(alg))
    return (
        len(y_basis),
        mat_rank(sparse_rows(_pairing_matrix(alg, x_basis, y_basis, psi_alpha))),
        mat_rank(sparse_rows(_pairing_matrix(alg, z_basis, y_basis, psi))),
    )


@pytest.mark.parametrize("key", sorted(EXPECTED_P))
def test_pairings_perfect(key):
    alg = algebra_for(*key)
    assert verify_pairings(alg) == (EXPECTED_P[key],) * 3


def test_extract_g2_normalizes_to_x3(g2):
    T = extraction(g2).tensor
    assert T == SymCubic(1, {(0, 0, 0): 1})


@pytest.mark.parametrize("key", sorted(EXPECTED_P))
def test_extracted_assumption(key):
    alg = algebra_for(*key)
    T = extraction(alg).tensor
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


def _dense_reference(alg, data):
    """phi = m_lower . m_upper^-1 and the raw cubic by dense contraction."""
    p = data.p
    m_lower = _pairing_matrix(alg, data.x_basis, data.y_basis, data.psi_alpha_label)
    m_upper = _pairing_matrix(alg, data.z_basis, data.y_basis, data.psi_label)
    phi_mat = mat_mul(sparse_rows(m_lower), mat_inv(sparse_rows(m_upper)))
    y_index = {lab: i for i, lab in enumerate(data.y_basis)}
    phi_vecs = [{data.z_basis[b]: v for b, v in row.items()} for row in phi_mat]
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
        return sum((v * contracted[b][c][d] for d, v in phi_mat[a].items()), F(0))

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
    return phi_mat, SymCubic(p, entries)


SUPPORTED = sorted(EXPECTED_P) + [("B", n) for n in range(3, 9)] + [
    ("D", n) for n in range(4, 9)
]


@pytest.mark.parametrize("key", SUPPORTED)
def test_sparse_contraction_matches_dense(key):
    """The matchings give the phi and raw cubic of the dense solve."""
    alg = algebra_for(*key)
    data = extraction(alg)
    phi_mat, raw = _dense_reference(alg, data)
    p = data.p
    dense_phi = [[F(0)] * p for _ in range(p)]
    for a, (b, r) in enumerate(data.phi):
        dense_phi[a][b] = r
    assert sparse_rows(dense_phi) == phi_mat
    assert data.raw_tensor == raw


@pytest.mark.parametrize("key", SUPPORTED)
def test_b_rows_are_multiples_of_one_eps(key):
    """The cubic is a weight vector: each nonzero B(e_i, e_j) has one coordinate."""
    data = extraction(algebra_for(*key))
    p = data.p
    table = bracket_table(data.raw_tensor)
    rows = [table[i][p + j] for i in range(p) for j in range(p) if table[i].get(p + j)]
    assert rows and all(len(terms) == 1 for terms in rows)


def _tall_solve_j(alg, data, table):
    """Rows J(eps_k) in the g(1,1) basis, from one tall solve of
    J(B(e_i, e_j)) = [x_i, phi(x_j)] over every pair with B(e_i, e_j) != 0."""
    p = data.p
    y_index = {lab: k for k, lab in enumerate(data.y_basis)}
    b_rows, k_rows = [], []
    for i in range(p):
        for j in range(p):
            terms = table[i].get(p + j)
            if not terms:
                continue
            b_row = [Q0] * p
            for k, c in terms:
                b_row[k - 2 * p] = c
            zb, r = data.phi[j]
            k_row = [Q0] * p
            for lab, coeff in alg.bracket({data.x_basis[i]: 1}, {data.z_basis[zb]: r}).items():
                k_row[y_index[lab]] = coeff
            b_rows.append(b_row)
            k_rows.append(k_row)
    return _solve_augmented(sparse_rows(b_rows), sparse_rows(k_rows), p)


@pytest.mark.parametrize("key", SUPPORTED)
def test_theta_of_eps_matches_tall_solve(key):
    """J(eps_k) read off the first pair equals the solve over all pairs."""
    alg = algebra_for(*key)
    data = extraction(alg)
    p = data.p
    table = bracket_table(data.raw_tensor)
    y_pos = {alg.index[lab]: m for m, lab in enumerate(data.y_basis)}
    rows = []
    for s, c in _theta(alg, data, table)[2 * p:]:
        row = [Q0] * p
        row[y_pos[s]] = c
        rows.append(row)
    assert sparse_rows(rows) == _tall_solve_j(alg, data, table)


def test_algebra_for_shares_one_algebra_across_case(e6):
    assert algebra_for("e", 6) is algebra_for("E", 6) is e6


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


# --- verdicts of the embedding check on corrupted Chevalley tables ------
#
# Each mutant corrupts structure constants of a fresh algebra after its
# extraction is memoized, so only verify_embedding reads the corrupted
# entries.  The blocks are named by the pieces of the two basis labels:
# x in g(0,1), z in g(1,0), y in g(1,1).


def _extracted(lie_type, rank):
    alg = chevalley(build_root_system(lie_type, rank))
    return alg, extraction(alg)


def _dense_embedding(alg):
    """(pairs_checked, first_mismatch) of the walk over all d^2 pairs
    (a, b) in order that the sparse comparison replaced, as a reference."""
    data = extraction(alg)
    p = data.p
    index = alg.index
    table = bracket_table(data.raw_tensor)
    theta = _theta(alg, data, table)
    kappa1 = _image_bracket(alg, theta, 2 * p, 0).get(index[data.psi_alpha_label], Q0)
    kappa2 = _image_bracket(alg, theta, 2 * p, p).get(index[data.psi_label], Q0)
    if not kappa1 or not kappa2:
        return 0, ("degenerate W normalization",)
    theta += [(index[data.psi_alpha_label], kappa1), (index[data.psi_label], kappa2)]
    d = n_dim(p)
    pairs = 0
    for a in range(d):
        for b in range(d):
            pairs += 1
            expected = {}
            for idx, coeff in table[a].get(b, ()):
                s, c = theta[idx]
                val = expected.get(s, Q0) + coeff * c
                if val:
                    expected[s] = val
                else:
                    expected.pop(s, None)
            got = _image_bracket(alg, theta, a, b)
            if got != expected:
                labels = alg.labels
                got, expected = (
                    {labels[k]: v for k, v in m.items()} for m in (got, expected)
                )
                return pairs, (a, b, got, expected)
    return pairs, None


def _assert_fails_as_dense_walk(alg):
    rep = verify_embedding(alg)
    assert rep.ok is False
    assert (rep.pairs_checked, rep.first_mismatch) == _dense_embedding(alg)
    return rep


def _block_entries(alg, left, right):
    """(row, column) positions of the nonzero entries [left_a, right_b]."""
    index = alg.index
    return [
        (index[la], index[lb])
        for la in left
        for lb in right
        if alg._row(index[la]).get(index[lb])
    ]


def _scale(alg, i, j, factor):
    row = alg._row(i)
    row[j] = tuple((k, factor * c) for k, c in row[j])


def _block(data, name):
    pieces = {"x": data.x_basis, "z": data.z_basis, "y": data.y_basis}
    return pieces[name[0]], pieces[name[1]]


@pytest.mark.parametrize("block", ["xz", "yx", "yz"])
@pytest.mark.parametrize("key, which", [(("G", 2), 0), (("F", 4), 0), (("F", 4), -1)])
def test_embedding_fails_on_one_sided_entry(key, which, block):
    alg, data = _extracted(*key)
    i, j = _block_entries(alg, *_block(data, block))[which]
    _scale(alg, i, j, 2)
    _assert_fails_as_dense_walk(alg)


@pytest.mark.parametrize("block", ["xz", "yx", "yz"])
@pytest.mark.parametrize("which", [0, 3, -1])
def test_embedding_fails_on_antisymmetric_pair_f4(which, block):
    alg, data = _extracted("F", 4)
    i, j = _block_entries(alg, *_block(data, block))[which]
    _scale(alg, i, j, 2)
    _scale(alg, j, i, 2)
    _assert_fails_as_dense_walk(alg)


@pytest.mark.parametrize("key", [("G", 2), ("F", 4)])
def test_embedding_fails_on_bracket_outside_g11(key):
    alg, data = _extracted(*key)
    i, j = _block_entries(alg, data.x_basis, data.z_basis)[0]
    (_k, c), = alg._row(i)[j]
    alg._row(i)[j] = ((alg.index[data.psi_label], c),)
    _assert_fails_as_dense_walk(alg)


@pytest.mark.parametrize("key", [("G", 2), ("F", 4)])
def test_embedding_fails_on_deleted_xz_entry(key):
    """A zero [x_i, phi(x_j)] gives J(eps_k) a zero image, which is reported."""
    alg, data = _extracted(*key)
    i, j = _block_entries(alg, data.x_basis, data.z_basis)[0]
    del alg._row(i)[j]
    _assert_fails_as_dense_walk(alg)


@pytest.mark.parametrize("key", [("G", 2), ("F", 4), ("E", 6)])
def test_embedding_fails_on_entry_where_n_bracket_is_zero(key):
    """[x_i, x_j] is zero in n, so n's row of e_i (x) f1 stores no e_j (x) f1:
    only the Chevalley side can reach the added entry."""
    alg, data = _extracted(*key)
    index = alg.index
    j = min(1, data.p - 1)
    xi, xj = index[data.x_basis[0]], index[data.x_basis[j]]
    assert xj not in alg._row(xi)
    assert j not in bracket_table(data.raw_tensor)[0]
    alg._row(xi)[xj] = ((index[data.psi_label], 1),)
    rep = _assert_fails_as_dense_walk(alg)
    assert rep.first_mismatch[:2] == (0, j)
    assert rep.pairs_checked == j + 1


def test_embedding_raises_on_zero_cubic():
    alg, data = _extracted("F", 4)
    alg.derived["extraction"] = dataclasses.replace(
        data, raw_tensor=SymCubic(data.p, {})
    )
    with pytest.raises(ExtractionError):
        verify_embedding(alg)


def test_embedding_raises_on_b_row_with_two_coordinates():
    """A cubic that is not a weight vector has a B(e_i, e_j) off one eps_k."""
    alg, data = _extracted("F", 4)
    entries = dict(data.raw_tensor.entries)
    (a, b, _c), value = next(iter(entries.items()))
    k = next(k for k in range(data.p) if tuple(sorted((a, b, k))) not in entries)
    entries[tuple(sorted((a, b, k)))] = value
    alg.derived["extraction"] = dataclasses.replace(
        data, raw_tensor=SymCubic(data.p, entries)
    )
    with pytest.raises(ExtractionError) as err:
        verify_embedding(alg)
    assert str(err.value) == (
        "B(e_0, e_3) has 2 coordinates: the cubic is not a weight vector"
    )


# --- extraction on corrupted pairings -------------------------------------
#
# Each mutant corrupts one table entry of a fresh algebra before its
# extraction runs, so extraction itself must reject it.


def _pieces(lie_type, rank):
    alg = chevalley(build_root_system(lie_type, rank))
    return alg, _distinguished(alg, double_grading(alg))


def _redirect(alg, i, j, label):
    (_k, c), = alg._row(i)[j]
    alg._row(i)[j] = ((alg.index[label], c),)


@pytest.mark.parametrize("key", [("G", 2), ("F", 4)])
def test_extraction_rejects_missing_partner(key):
    alg, (x_basis, _z, y_basis, _psi, _psi_alpha) = _pieces(*key)
    i, j = _block_entries(alg, x_basis, y_basis)[0]
    del alg._row(i)[j]
    with pytest.raises(ExtractionError, match="pairings are not perfect"):
        extraction(alg)


@pytest.mark.parametrize("key", [("G", 2), ("F", 4)])
def test_extraction_rejects_pairing_off_target_line(key):
    alg, (x_basis, _z, y_basis, psi, _psi_alpha) = _pieces(*key)
    i, j = _block_entries(alg, x_basis, y_basis)[0]
    _redirect(alg, i, j, psi)
    with pytest.raises(ExtractionError, match="leaves the target line"):
        extraction(alg)


@pytest.mark.parametrize("key", [("G", 2), ("F", 4)])
def test_extraction_rejects_bracket_outside_g11(key):
    alg, (x_basis, z_basis, _y, psi, _psi_alpha) = _pieces(*key)
    i, j = _block_entries(alg, z_basis, x_basis)[0]
    _redirect(alg, i, j, psi)
    with pytest.raises(ExtractionError, match=r"leaves g\(1,1\)"):
        extraction(alg)
