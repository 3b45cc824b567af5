import copy
from fractions import Fraction as F
from time import perf_counter

import pytest
from conftest import sparse_rows
from hypothesis import given, settings, strategies as st

from cubicontact.linalg import _solve_augmented, mat_det, mat_inv, mat_mul, mat_rank
from cubicontact.sampling import SeededSampler
from cubicontact.scalars import Q0, Q1


def solve_vector(a, b):
    """a x = b for square dict rows a and a vector b, through the shared kernel."""
    return [row.get(0, Q0) for row in _solve_augmented(a, [{0: x} for x in b], len(a))]


# Reference: the three separate elimination loops that rank, det and solve
# used before they shared one kernel; inverse was one solve per column.
# The references take dense lists; the kernel takes their sparse_rows.


def ref_rank(rows):
    if not rows:
        return 0
    m = [list(r) for r in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Q1 / m[rank][col]
        for r in range(rank + 1, n_rows):
            f = m[r][col]
            if f == 0:
                continue
            f = f * inv
            row, prow = m[r], m[rank]
            for c in range(col, n_cols):
                row[c] -= prow[c] * f
        rank += 1
        if rank == n_rows:
            break
    return rank


def ref_det(rows):
    n = len(rows)
    if n == 0:
        return Q1
    m = [list(r) for r in rows]
    det = Q1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Q0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Q1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col]
            if f == 0:
                continue
            f = f * inv
            row, prow = m[r], m[col]
            for c in range(col, n):
                row[c] -= prow[c] * f
    return det


def ref_solve(a, b):
    n = len(a)
    m = [list(row) + [bv] for row, bv in zip(a, b)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("singular system")
        m[col], m[piv] = m[piv], m[col]
        inv = Q1 / m[col][col]
        for c in range(col, n + 1):
            m[col][c] *= inv
        for r in range(n):
            if r == col:
                continue
            f = m[r][col]
            if f == 0:
                continue
            for c in range(col, n + 1):
                m[r][c] -= m[col][c] * f
    return [m[r][n] for r in range(n)]


def ref_inv(a):
    n = len(a)
    cols = [ref_solve(a, [Q1 if i == j else Q0 for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def ref_mul(a, b):
    m = len(b[0]) if b else 0
    return [[sum((x * bt[j] for x, bt in zip(ai, b)), Q0) for j in range(m)] for ai in a]


def _random(sampler, n_rows, n_cols, sparsity=0):
    """Seeded Fraction matrix; about sparsity / (sparsity + 1) of it zero."""
    return [
        [
            sampler.fraction() if sampler.int_range(0, sparsity) == 0 else Q0
            for _ in range(n_cols)
        ]
        for _ in range(n_rows)
    ]


def _large(sampler, n_rows, n_cols):
    """Seeded Fraction matrix with 30-bit numerators and denominators."""
    return [
        [F(sampler.int_range(-2 ** 30, 2 ** 30), sampler.int_range(1, 2 ** 30)) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


def _ints(sampler, n_rows, n_cols):
    """Seeded matrix of plain ints, about a third of them zero."""
    return [
        [sampler.int_range(-9, 9) if sampler.int_range(0, 2) else 0 for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


def _dtheta_shaped(sampler, p, y):
    """Skew (2p+4)-square matrix with the nonzero pattern of d(theta~):
    ints and Fractions, its zeros the shared Q0 except for an int 0 and
    a fresh Fraction(0).  Its determinant is y^(2p+2)."""
    n = 2 * p + 4
    m = [[Q0] * n for _ in range(n)]

    def put(a, b, x):
        m[a][b], m[b][a] = x, -x

    put(0, 2, 1)
    put(0, 3, -sampler.fraction())
    put(1, 3, -y)
    for i in range(p):
        put(0, 4 + i, sampler.fraction() / 2)
        put(0, 4 + p + i, sampler.int_range(-9, 9))
        put(4 + i, 4 + p + i, y)
    m[1][2], m[2][1] = 0, F(0)
    return m


def _low_rank(sampler, n, r):
    """n x n product of n x r and r x n factors: rank at most r."""
    return ref_mul(_random(sampler, n, r), _random(sampler, r, n))


def _cases():
    sampler = SeededSampler(57)
    cases = []
    for n in (1, 2, 3, 5, 8):
        cases.append(_random(sampler, n, n))
        cases.append(_random(sampler, n, n, sparsity=2))
    for n, r in ((3, 1), (4, 2), (6, 3), (7, 6)):
        cases.append(_low_rank(sampler, n, r))
    # Singular by a zero column, a repeated row, and a zero leading block
    # that forces row swaps.
    m = _random(sampler, 4, 4)
    cases.append([row[:2] + [Q0] + row[3:] for row in m])
    m = _random(sampler, 4, 4)
    cases.append([m[0], m[1], m[0], m[3]])
    cases.append([[Q0, Q0, F(1)], [Q0, F(2), F(3)], [F(4), F(5), F(6)]])
    # Large denominators, plain ints, and ints mixed with Fractions.
    for n in (2, 4, 7):
        cases.append(_large(sampler, n, n))
        cases.append(_ints(sampler, n, n))
    m = _ints(sampler, 5, 5)
    cases.append([row[:2] + big[2:] for row, big in zip(m, _large(sampler, 5, 5))])
    cases.append([[2, 4, 6], [1, 2, 3], [0, 1, 5]])
    # Sparse d(theta~)-shaped matrices, one of them singular (y = 0).
    for p, y in ((1, F(3, 7)), (3, F(-2)), (6, F(5, 11)), (2, Q0)):
        cases.append(_dtheta_shaped(sampler, p, y))
    # A signed permutation, as in the extraction pairings.
    cases.append([[Q0, F(-1), Q0], [Q0, Q0, F(1)], [F(1), Q0, Q0]])
    return cases


CASES = _cases()


@pytest.mark.parametrize("m", CASES)
def test_rank_det_solve_inv_match_reference(m):
    n = len(m)
    s = sparse_rows(m)
    assert mat_rank(s) == ref_rank(m)
    det = mat_det(s)
    assert det == ref_det(m) and type(det) is F
    b = [F(k + 1, 3) for k in range(n)]
    if ref_det(m) == 0:
        for fn, args in ((solve_vector, (s, b)), (mat_inv, (s,))):
            with pytest.raises(ZeroDivisionError):
                fn(*args)
        return
    assert solve_vector(s, b) == ref_solve(m, b)
    assert solve_vector(s, list(range(n))) == ref_solve(m, list(range(n)))
    inv = mat_inv(s)
    assert inv == sparse_rows(ref_inv(m))
    assert all(type(x) is F for row in inv for x in row.values())
    assert mat_mul(s, inv) == [{i: Q1} for i in range(n)]


@pytest.mark.parametrize("shape", [(2, 5), (5, 2), (3, 3)])
def test_rank_rectangular_matches_reference(shape):
    sampler = SeededSampler(58)
    for sparsity in (0, 3):
        m = _random(sampler, *shape, sparsity=sparsity)
        assert mat_rank(sparse_rows(m)) == ref_rank(m)
    for m in (_large(sampler, *shape), _ints(sampler, *shape)):
        assert mat_rank(sparse_rows(m)) == ref_rank(m)
    low = ref_mul(_random(sampler, shape[0], 1), _random(sampler, 1, shape[1]))
    assert mat_rank(sparse_rows(low)) == ref_rank(low) <= 1


@pytest.mark.parametrize("n", [1, 3, 6])
def test_tall_full_rank_solve_matches_reference(n):
    # A consistent tall system [a | a x]: zero rows, repeated rows and
    # combinations of rows around n independent ones, in shuffled order.
    sampler = SeededSampler(59 + n)
    square = _random(sampler, n, n)
    while ref_det(square) == 0:
        square = _random(sampler, n, n)
    x = _random(sampler, n, 2)
    extra = ref_mul(_random(sampler, 2 * n, n, sparsity=2), square)
    rows = square + extra + [[Q0] * n, square[0]]
    order = sorted(range(len(rows)), key=lambda _i: sampler.int_range(0, 10 ** 6))
    tall = [rows[i] for i in order]
    right = mat_mul(sparse_rows(tall), sparse_rows(x))
    assert right == sparse_rows(ref_mul(tall, x))
    assert _solve_augmented(sparse_rows(tall), right, n) == sparse_rows(x)
    # Rank below n raises, also with no rows at all.
    for deficient in ([r[:-1] + [Q0] for r in tall], []):
        with pytest.raises(ZeroDivisionError):
            _solve_augmented(sparse_rows(deficient), [{} for _ in deficient], n)


def test_dtheta_shaped_determinant_closed_form():
    sampler = SeededSampler(60)
    for p in (1, 4, 15):
        y = sampler.nonzero_fraction()
        assert mat_det(sparse_rows(_dtheta_shaped(sampler, p, y))) == y ** (2 * p + 2)


def test_inputs_are_not_modified():
    m = [{0: Q0, 1: F(1)}, {0: F(2), 1: F(3)}]
    right = [{0: Q1}, {1: Q1}]
    before = copy.deepcopy((m, right))
    mat_rank(m), mat_det(m), _solve_augmented(m, right, 2), mat_inv(m), mat_mul(m, right)
    assert (m, right) == before


def test_empty():
    assert mat_rank([]) == 0
    assert mat_det([]) == 1


def test_far_column_ranks_at_once():
    # Columns are read where they occur: a column index of 10**8 builds
    # nothing of that length.
    rows = [{0: F(1, 2), 10 ** 8: 3}, {10 ** 8: F(-1, 7), 5: Q0}, {0: 1}, {}]
    t0 = perf_counter()
    assert mat_rank(rows) == 2
    assert perf_counter() - t0 < 0.1


# Drawn matrices: shapes up to 8 x 8 and tall systems, zero shares from
# none to all, ints, small and 30-bit Fractions, zeros written as Q0, 0
# or Fraction(0), and rows repeated or combined from earlier ones.  The
# kernel gets them as dict rows that also store some of the zeros.
ZERO = st.sampled_from([Q0, 0, F(0)])
ENTRY = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(F, st.integers(-2 ** 30, 2 ** 30), st.integers(1, 2 ** 30)),
)


@st.composite
def matrices(draw, n_rows, n_cols, dependent=True):
    zero_share = draw(st.integers(0, 9))
    m = [
        [draw(ZERO) if draw(st.integers(0, 9)) < zero_share else draw(ENTRY) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    for r in range(1, n_rows if dependent else 0):
        kind = draw(st.sampled_from(["drawn", "repeat", "combination"]))
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        if kind == "repeat":
            m[r] = list(m[i])
        elif kind == "combination":
            s, t = draw(ENTRY), draw(ENTRY)
            m[r] = [s * x + t * y for x, y in zip(m[i], m[j])]
    return m


@st.composite
def stored(draw, m):
    """sparse_rows(m) with explicit zeros (Q0, 0, Fraction(0)) drawn into some of m's zero places."""
    rows = sparse_rows(m)
    for row, dense in zip(rows, m):
        for j, x in enumerate(dense):
            if not x and draw(st.booleans()):
                row[j] = draw(ZERO)
    return rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_drawn_rank_matches_reference(data):
    n_cols = data.draw(st.integers(0, 8))
    m = data.draw(matrices(data.draw(st.integers(0, 8)), n_cols))
    # Column j moves to a drawn index up to 10**8; the indices between
    # are absent from every row.
    cols = sorted(data.draw(st.sets(st.integers(0, 10 ** 8 - 1), min_size=n_cols, max_size=n_cols)))
    if cols and data.draw(st.booleans()):
        cols[-1] = 10 ** 8
    rows = [{cols[j]: x for j, x in row.items()} for row in data.draw(stored(m))]
    before = copy.deepcopy(rows)
    assert mat_rank(rows) == ref_rank(m)
    assert rows == before


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_drawn_square_det_solve_inv_match_reference(data):
    n = data.draw(st.integers(0, 8))
    m = data.draw(matrices(n, n, dependent=data.draw(st.booleans())))
    a = data.draw(stored(m))
    b = data.draw(st.lists(ENTRY, min_size=n, max_size=n))
    det = mat_det(a)
    assert det == ref_det(m) and type(det) is F
    if det == 0:
        for fn, args in ((solve_vector, (a, b)), (mat_inv, (a,))):
            with pytest.raises(ZeroDivisionError):
                fn(*args)
        return
    assert solve_vector(a, b) == ref_solve(m, b)
    assert mat_inv(a) == sparse_rows(ref_inv(m))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_drawn_tall_solve_matches_reference(data):
    # A consistent tall system a x = a x0: read off its pivot rows, the
    # solution is x0 when a has full column rank.
    n = data.draw(st.integers(1, 6))
    m = data.draw(matrices(data.draw(st.integers(n + 1, 2 * n + 3)), n))
    x0 = data.draw(matrices(n, 2))
    a = data.draw(stored(m))
    right = mat_mul(a, data.draw(stored(x0)))
    assert right == sparse_rows(ref_mul(m, x0))
    if ref_rank(m) < n:
        with pytest.raises(ZeroDivisionError):
            _solve_augmented(a, right, n)
        return
    assert _solve_augmented(a, right, n) == sparse_rows(x0)


INT_ENTRY = st.integers(-3, 3) | st.integers(-2 ** 40, 2 ** 40)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_int_matrix_and_its_fraction_twin_agree(data):
    # Rows of nonzero ints enter the kernel as given, without the scale
    # pass; their Fraction twin, and int rows that store a zero, go
    # through it.  All give the same det, rank and inverse, and no input
    # is written.
    n = data.draw(st.integers(0, 7))
    ints = [
        {j: x for j, x in enumerate(data.draw(st.lists(INT_ENTRY, min_size=n, max_size=n)))
         if x or data.draw(st.booleans())}
        for _ in range(n)
    ]
    twin = [{j: F(x) for j, x in row.items()} for row in ints]
    before = copy.deepcopy(ints)
    det = mat_det(ints)
    assert det == mat_det(twin) == ref_det([[row.get(j, Q0) for j in range(n)] for row in twin])
    assert type(det) is F and mat_rank(ints) == mat_rank(twin)
    if det:
        assert mat_inv(ints) == mat_inv(twin)
    assert ints == before
