import pytest

from cubicontact.chevalley import (
    StructureConstantError,
    chevalley,
    verify_chevalley_jacobi,
)
from cubicontact.extraction import algebra_for
from cubicontact.rootsystems import build_root_system, find_alpha


def test_a1_is_sl2():
    alg = algebra_for("A", 1)
    e = ("e", (1,))
    f = ("e", (-1,))
    h = ("h", 0)
    assert alg.bracket_labels(e, f) == {h: 1}
    assert alg.bracket_labels(h, e) == {e: 2}
    assert alg.bracket_labels(h, f) == {f: -2}


def test_a2_structure_constants_unit():
    alg = algebra_for("A", 2)
    a = ("e", (1, 0))
    b = ("e", (0, 1))
    out = alg.bracket_labels(a, b)
    assert list(out.values()) in ([1], [-1])
    assert alg.n_constant((1, 0), (0, 1)) == -alg.n_constant((0, 1), (1, 0))


def test_g2_string_lengths_enter_constants():
    alg = algebra_for("G", 2)
    # alpha1 string through alpha2 has length 3, so the extraspecial
    # constant on alpha1 + alpha2 is at most 4 in magnitude.
    n = alg.n_constant((1, 0), (0, 1))
    assert n != 0 and abs(n) <= 4


@pytest.mark.parametrize("key", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                 ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_jacobi_exhaustive_small(key):
    alg = algebra_for(*key)
    rep = verify_chevalley_jacobi(alg)
    assert rep.ok
    assert rep.mode == "exhaustive"
    d = alg.dimension
    assert rep.triples_checked == d * (d - 1) * (d - 2) // 6


@pytest.mark.parametrize("key", [("E", 6), ("E", 7), ("E", 8)])
def test_jacobi_sampled_e_series(key):
    alg = algebra_for(*key)
    rep = verify_chevalley_jacobi(alg, sample=4000, seed=3)
    assert rep.ok
    assert rep.mode == "sampled"


@pytest.mark.parametrize("key", [("E", 6), ("E", 7), ("E", 8)])
def test_jacobi_exhaustive_e_series(key):
    alg = algebra_for(*key)
    rep = verify_chevalley_jacobi(alg)
    assert rep.ok
    d = alg.dimension
    assert rep.triples_checked == d * (d - 1) * (d - 2) // 6


def _root_pairs(rs):
    """Pairs of roots whose sum is a root."""
    for a in rs.all_roots():
        for b in rs.all_roots():
            s = tuple(x + y for x, y in zip(a, b))
            if any(s) and rs.is_root(s):
                yield a, b


def _reference_bracket_labels(alg, la, lb):
    """[la, lb] straight from the Chevalley rules, without the table."""
    rs = alg.rs
    (ka, va), (kb, vb) = la, lb
    if ka == "h" and kb == "h":
        return {}
    if ka == "h":
        c = rs.pairing(vb, rs.simple_root(va))
        return {lb: c} if c else {}
    if kb == "h":
        c = rs.pairing(va, rs.simple_root(vb))
        return {la: -c} if c else {}
    s = tuple(x + y for x, y in zip(va, vb))
    if not any(s):
        coords = rs.coroot_coordinates(va)
        return {("h", i): c for i, c in enumerate(coords) if c}
    if rs.is_root(s):
        return {("e", s): alg.n_constant(va, vb)}
    return {}


def _reference_violations(alg):
    """Label-level antisymmetry over basis pairs, then the exhaustive
    jacobiator over unordered basis triples."""
    labels = alg.labels
    d = len(labels)
    violations = []
    for i in range(d):
        for j in range(i, d):
            la, lb = labels[i], labels[j]
            ab = _reference_bracket_labels(alg, la, lb)
            ba = _reference_bracket_labels(alg, lb, la)
            if ab != {lab: -c for lab, c in ba.items()}:
                violations.append((la, lb))
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                la, lb, lc = labels[i], labels[j], labels[k]
                acc = {}
                for x, y, z in ((la, lb, lc), (lb, lc, la), (lc, la, lb)):
                    for lw, cw in _reference_bracket_labels(alg, y, z).items():
                        for lv, cv in _reference_bracket_labels(alg, x, lw).items():
                            acc[lv] = acc.get(lv, 0) + cw * cv
                if any(acc.values()):
                    violations.append((la, lb, lc))
    return tuple(violations)


@pytest.mark.parametrize("key", [("G", 2), ("B", 3)])
def test_table_matches_reference_rules(key):
    alg = chevalley(build_root_system(*key))
    for la in alg.labels:
        for lb in alg.labels:
            assert alg.bracket_labels(la, lb) == _reference_bracket_labels(
                alg, la, lb
            )
    assert verify_chevalley_jacobi(alg).violations == _reference_violations(alg) == ()


@pytest.mark.parametrize("key", [("G", 2), ("B", 3)])
def test_jacobi_detects_flipped_constant(key):
    # A private algebra: the shared algebra_for instances stay untouched.
    alg = chevalley(build_root_system(*key))
    for a, b in _root_pairs(alg.rs):
        alg.n_constant(a, b)
    flipped = min(alg._n_memo)
    alg._n_memo[flipped] = -alg._n_memo[flipped]
    rep = verify_chevalley_jacobi(alg)
    assert not rep.ok
    d = alg.dimension
    assert rep.triples_checked == d * (d - 1) * (d - 2) // 6
    assert rep.violations == _reference_violations(alg)
    assert len(rep.violations[0]) == 2


@pytest.mark.parametrize("key", [("G", 2), ("B", 3)])
def test_jacobi_reports_one_sided_corruption_as_pair(key):
    # Double [e_a, e_b] but not [e_b, e_a]: the bracket is no longer
    # antisymmetric, which the C(d, 3) triple walk alone cannot see.
    alg = chevalley(build_root_system(*key))
    rows = alg.table()
    a, b = next(
        (i, j) for i, row in enumerate(rows) for j in row
        if i < j and alg.labels[i][0] == alg.labels[j][0] == "e"
    )
    rows[a][b] = tuple((k, 2 * c) for k, c in rows[a][b])
    rep = verify_chevalley_jacobi(alg)
    assert not rep.ok
    assert rep.violations[0] == (alg.labels[a], alg.labels[b])
    assert [v for v in rep.violations if len(v) == 2] == [rep.violations[0]]


def test_jacobi_finds_lone_nonzero_inner_bracket():
    # Corrupt [h_0, h_1] into a root vector that h_2 does not centralize:
    # for (h_0, h_1, h_2) that is the only nonzero inner bracket.
    alg = chevalley(build_root_system("B", 3))
    h0, h1, h2 = alg.labels[:3]
    root = next(
        lab for lab in alg.labels if lab[0] == "e" and alg.bracket_labels(h2, lab)
    )
    alg.table()[alg.index[h0]][alg.index[h1]] = ((alg.index[root], 1),)
    assert (h0, h1, h2) in verify_chevalley_jacobi(alg).violations


@pytest.mark.parametrize("string_p, message", [(0, "non-integral"), (-1, "vanishing")])
def test_bad_structure_constant_raises(string_p, message):
    alg = chevalley(build_root_system("G", 2))
    alg.string_p = lambda alpha, beta: string_p
    with pytest.raises(StructureConstantError, match=message):
        alg.table()


def test_all_constants_integral_f4():
    alg = algebra_for("F", 4)
    for a, b in _root_pairs(alg.rs):
        n = alg.n_constant(a, b)
        assert isinstance(n, int) and n != 0


def test_coroot_normalization_g2():
    alg = algebra_for("G", 2)
    rs = alg.rs
    assert rs.pairing(rs.highest_root, rs.highest_root) == 2


def test_coroot_pairing_f4():
    alg = algebra_for("F", 4)
    rs = alg.rs
    _i, alpha = find_alpha(rs)
    psi_alpha = tuple(p - a for p, a in zip(rs.highest_root, alpha))
    assert rs.pairing(psi_alpha, rs.highest_root) == 1


def test_bracket_of_combinations():
    alg = algebra_for("A", 2)
    e1 = {("e", (1, 0)): 1}
    e2 = {("e", (0, 1)): 2}
    out = alg.bracket(e1, e2)
    assert out == {("e", (1, 1)): 2 * alg.n_constant((1, 0), (0, 1))}
    assert alg.bracket(e1, e1) == {}
