import pytest

from cubicontact.chevalley import (
    StructureConstantError,
    chevalley,
    verify_chevalley_jacobi,
)
from cubicontact.extraction import algebra_for
from cubicontact.rootsystems import build_root_system, find_alpha

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _n(alg, x, y):
    """alg.n_constant of two roots given as coordinate tuples."""
    return alg.n_constant(alg.index["e", x], alg.index["e", y])


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _neg(a):
    return tuple(-x for x in a)


# (type, rank) -> (positive root -> (height, lex) order index,
# extraspecial pairs, memo of N by root tuple pair).
_REFERENCE = {}


def _reference_extraspecial(rs, order):
    """gamma -> (alpha, beta) for every non-simple positive root."""
    out = {}
    for gamma in rs.pos_roots:
        if sum(gamma) == 1:
            continue
        best = None
        for alpha in rs.pos_roots:
            beta = _vsub(gamma, alpha)
            if beta not in order:
                continue
            if order[alpha] >= order[beta]:
                continue
            if best is None or order[alpha] < order[best[0]]:
                best = (alpha, beta)
        out[gamma] = best
    return out


def _reference_string_p(rs, alpha, beta):
    """Largest k with beta - k alpha a root."""
    k = 0
    gamma = _vsub(beta, alpha)
    while rs.is_root(gamma) and any(gamma):
        k += 1
        gamma = _vsub(gamma, alpha)
    return k


def _reference_n_constant(rs, x, y):
    """N(x, y) of two root tuples by the extraspecial-pair recursion on
    root coordinates, independent of ChevalleyAlgebra, with its own memo."""
    key = (rs.lie_type, rs.rank)
    if key not in _REFERENCE:
        order = {b: i for i, b in enumerate(rs.pos_roots)}
        _REFERENCE[key] = (order, _reference_extraspecial(rs, order), {})
    order, extraspecial, memo = _REFERENCE[key]
    hit = memo.get((x, y))
    if hit is not None:
        return hit
    s = _vadd(x, y)
    if not any(s) or not rs.is_root(s):
        return 0
    val = _reference_n_compute(rs, order, extraspecial, x, y, s)
    assert isinstance(val, int) and val
    memo[(x, y)] = val
    return val


def _reference_n_compute(rs, order, extraspecial, x, y, s):
    n = lambda u, v: _reference_n_constant(rs, u, v)  # noqa: E731

    def exact(num, den):
        val, rem = divmod(num, den)
        assert not rem, (x, y, num, den)
        return val

    xpos = x in order
    ypos = y in order
    if xpos and ypos:
        if order[x] > order[y]:
            return -n(y, x)
        eps, delta = extraspecial[s]
        if (x, y) == (eps, delta):
            return _reference_string_p(rs, x, y) + 1
        t1 = 0
        if rs.is_root(_vsub(eps, y)):
            t1 = n(_neg(y), eps) * n(_neg(x), _vsub(eps, y))
        t2 = 0
        if rs.is_root(_vsub(eps, x)):
            t2 = n(eps, _neg(x)) * n(_neg(y), _vsub(eps, x))
        return exact(t1 + t2, n(eps, _neg(s)))
    if not xpos and not ypos:
        return -n(_neg(x), _neg(y))
    if not xpos:
        return -n(y, x)
    if s in order:
        return exact(-rs.norm2(s) * n(_neg(y), s), rs.norm2(x))
    return n(_neg(y), _neg(x))


def _reference_table(rs):
    """Labels h_i, positive roots, negative roots, and the structure-constant
    table filled row by row from root tuples, rs.pairing and
    _reference_n_constant."""
    r = rs.rank
    labels = ([("h", i) for i in range(r)] + [("e", b) for b in rs.pos_roots]
              + [("e", _neg(b)) for b in rs.pos_roots])
    index = {lab: i for i, lab in enumerate(labels)}
    rows = []
    for i, (kind, va) in enumerate(labels):
        row = {}
        if kind == "h":
            alpha = rs.simple_root(va)
            for j in range(r, len(labels)):
                c = rs.pairing(labels[j][1], alpha)
                if c:
                    row[j] = ((j, c),)
            rows.append(row)
            continue
        for j in range(r):
            c = rs.pairing(va, rs.simple_root(j))
            if c:
                row[j] = ((i, -c),)
        for j in range(r, len(labels)):
            vb = labels[j][1]
            s = _vadd(va, vb)
            if not any(s):
                coords = rs.coroot_coordinates(va)
                row[j] = tuple((t, c) for t, c in enumerate(coords) if c)
            elif ("e", s) in index:
                row[j] = ((index["e", s], _reference_n_constant(rs, va, vb)),)
        rows.append(row)
    return tuple(labels), rows


@pytest.mark.parametrize("key", ALL_TYPES, ids=lambda k: f"{k[0]}{k[1]}")
def test_table_matches_reference_constants(key):
    alg = chevalley(build_root_system(*key))
    assert (alg.labels, alg.table()) == _reference_table(alg.rs)


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
    assert _n(alg, (1, 0), (0, 1)) == -_n(alg, (0, 1), (1, 0))


def test_g2_string_lengths_enter_constants():
    alg = algebra_for("G", 2)
    # alpha1 string through alpha2 has length 3, so the extraspecial
    # constant on alpha1 + alpha2 is at most 4 in magnitude.
    n = _n(alg, (1, 0), (0, 1))
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
            s = _vadd(a, b)
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
    s = _vadd(va, vb)
    if not any(s):
        coords = rs.coroot_coordinates(va)
        return {("h", i): c for i, c in enumerate(coords) if c}
    if rs.is_root(s):
        return {("e", s): _n(alg, va, vb)}
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
        _n(alg, a, b)
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
        n = _n(alg, a, b)
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
    assert out == {("e", (1, 1)): 2 * _n(alg, (1, 0), (0, 1))}
    assert alg.bracket(e1, e1) == {}
