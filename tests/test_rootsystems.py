import pytest

from cubicontact.rootsystems import (
    RootSystemError,
    TypeARejection,
    build_root_system,
    cartan_matrix,
    find_alpha,
    symmetrizer,
)

ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 8): 72,
    ("B", 2): 8, ("B", 3): 18, ("B", 8): 128,
    ("C", 3): 18, ("C", 8): 128,
    ("D", 4): 24, ("D", 8): 112,
    ("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
    ("F", 4): 48, ("G", 2): 12,
}


@pytest.mark.parametrize("key", sorted(ROOT_COUNTS))
def test_root_counts(key):
    t, r = key
    rs = build_root_system(t, r)
    assert len(rs.all_roots()) == ROOT_COUNTS[key]


HIGHEST = {
    ("A", 3): (1, 1, 1),
    ("B", 3): (1, 2, 2),
    ("C", 3): (2, 2, 1),
    ("D", 4): (1, 2, 1, 1),
    ("G", 2): (3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
}


@pytest.mark.parametrize("key", sorted(HIGHEST))
def test_highest_roots(key):
    rs = build_root_system(*key)
    assert rs.highest_root == HIGHEST[key]


def test_highest_root_is_maximal():
    rs = build_root_system("F", 4)
    psi = rs.highest_root
    for i in range(4):
        up = tuple(c + s for c, s in zip(psi, rs.simple_root(i)))
        assert not rs.is_root(up)


def test_pairings_are_integers():
    rs = build_root_system("G", 2)
    for beta in rs.all_roots():
        for gamma in rs.all_roots():
            assert isinstance(rs.pairing(beta, gamma), int)


@pytest.mark.parametrize(
    "key", [("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("E", 6)]
)
def test_pairing_matches_coroot_expansion(key):
    """<beta, gamma^vee> = sum_i c_i <beta, alpha_i^vee>, c = gamma^vee coords.

    The right side expands gamma^vee in the simple coroots and reads
    <beta, alpha_i^vee> off row i of the Cartan matrix.
    """
    rs = build_root_system(*key)
    a = rs.cartan
    for gamma in rs.all_roots():
        c = rs.coroot_coordinates(gamma)
        assert all(isinstance(x, int) for x in c)
        for beta in rs.all_roots():
            expected = sum(
                c[i] * sum(b * a[i][j] for j, b in enumerate(beta))
                for i in range(rs.rank)
            )
            got = rs.pairing(beta, gamma)
            assert isinstance(got, int) and got == expected, (beta, gamma)


def test_inner_products_are_ints():
    rs = build_root_system("F", 4)
    for beta in rs.pos_roots:
        assert type(rs.norm2(beta)) is int and rs.norm2(beta) in (2, 4)
        assert type(rs.inner(beta, rs.highest_root)) is int


def test_symmetrizer_values():
    assert symmetrizer(cartan_matrix("G", 2)) == (1, 3)
    assert symmetrizer(cartan_matrix("F", 4)) == (2, 2, 1, 1)
    assert symmetrizer(cartan_matrix("B", 3)) == (2, 2, 1)
    assert symmetrizer(cartan_matrix("C", 3)) == (1, 1, 2)
    assert symmetrizer(cartan_matrix("E", 8)) == (1,) * 8


def test_invalid_types_rejected():
    with pytest.raises(RootSystemError):
        build_root_system("H", 2)
    with pytest.raises(RootSystemError):
        build_root_system("E", 9)
    with pytest.raises(RootSystemError):
        build_root_system("A", 9)
    with pytest.raises(RootSystemError):
        build_root_system("D", 3)


def test_find_alpha_g2_is_long_simple_root():
    rs = build_root_system("G", 2)
    idx, alpha = find_alpha(rs)
    assert alpha == (0, 1)
    assert rs.norm2(alpha) == rs.norm2(rs.highest_root)


@pytest.mark.parametrize("key", [("F", 4), ("E", 6), ("E", 7), ("E", 8), ("B", 3), ("D", 4)])
def test_find_alpha_unique(key):
    rs = build_root_system(*key)
    _idx, alpha = find_alpha(rs)
    diff = tuple(p - a for p, a in zip(rs.highest_root, alpha))
    assert rs.is_root(diff)


def test_find_alpha_type_a_rejected_with_candidates():
    with pytest.raises(TypeARejection) as err:
        find_alpha(build_root_system("A", 3))
    assert len(err.value.candidates) == 2
    with pytest.raises(TypeARejection) as err1:
        find_alpha(build_root_system("A", 1))
    assert err1.value.candidates == []
