"""The Kronecker check against a per-basis reference, mutants and a short N.

The expdiff suite's basis_roundtrip compares two maps linear in their
argument by their evaluation at the Kronecker points, z = (1, N, N^2,
...) over each block of columns, N = 2^(b+1) above twice a stated bound
on the maps' integer coefficients.  Here its verdict is compared with a
loop over the basis on random sparse cubics with large denominators,
over one block and over blocks of one column; a mutant with one wrong
coefficient at the highest position, N^(d-1), and one with a coefficient
just under the bound are caught; and a point with N at the planted
coefficient, below the bound, misses it, so the bound is what makes the
check exact.
"""

from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cubicontact import nilpotent, verify
from cubicontact.bch import exp_diff, exp_diff_inv
from cubicontact.catalog import catalog_get
from cubicontact.cubic import SymCubic
from cubicontact.nilpotent import NElem, basis_element, n_dim
from cubicontact.reports import RunConfig

BIG_DENOMINATORS = (1_000_003, 998_244_353, 2_147_483_647, 999_999_937)
big_fractions = st.just(F(0)) | st.builds(
    F, st.integers(-10 ** 12, 10 ** 12), st.sampled_from(BIG_DENOMINATORS) | st.integers(1, 10 ** 6)
)


@st.composite
def big_cubics(draw):
    """A sparse cubic with large denominators."""
    p = draw(st.integers(1, 5))
    index = st.integers(0, p - 1)
    entries = draw(st.dictionaries(st.tuples(index, index, index), big_fractions, max_size=8))
    return SymCubic(p, {tuple(sorted(t)): v for t, v in entries.items()})


@contextmanager
def _blocks(narrow):
    """Kronecker blocks of one column each when narrow, else n's one block
    (n <= 17 here)."""
    with pytest.MonkeyPatch.context() as mp:
        if narrow:
            mp.setattr(nilpotent, "KRONECKER_BLOCK_BITS", 1)
        yield


def _planted_inverse(k, terms):
    """exp_diff_inv plus sum c Z_j over terms (j, c), at position k:
    linear in Z, wrong only in the planted coefficients."""

    def planted(X, Z, T):
        Y = exp_diff_inv(X, Z, T)
        extra = [F(0)] * len(Y)
        extra[k] = sum(c * Z[j] for j, c in terms)
        return Y + NElem(tuple(extra))

    return planted


def _per_basis_roundtrip(X, T, inverse):
    basis = (basis_element(T.dim, j) for j in range(n_dim(T.dim)))
    return all(exp_diff(X, inverse(X, b, T), T) == b for b in basis)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(T=big_cubics(), narrow=st.booleans(), data=st.data())
def test_roundtrip_check_matches_per_basis_reference_with_large_denominators(T, narrow, data):
    d = n_dim(T.dim)
    k = data.draw(st.integers(0, d - 1))
    terms = data.draw(st.lists(st.tuples(st.integers(0, d - 1), big_fractions), max_size=2))
    inverse = _planted_inverse(k, terms)
    seen = []
    with _blocks(narrow), pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "exp_diff_inv", lambda X, Z, T: seen.append(X) or inverse(X, Z, T))
        cfg = RunConfig(seed=data.draw(st.integers(0, 99)), samples=1)
        _status, details = verify.run_expdiff_suite(T, cfg)
    failed = {"check": "basis_roundtrip"} in details["failures"]
    assert failed is not _per_basis_roundtrip(seen[0], T, inverse)


@pytest.mark.parametrize("bits, width", [(1, 1), (12, 3), (1 << 15, 11)])
def test_kronecker_blocks_cover_each_column_once(monkeypatch, bits, width):
    # bound 5: N = 16, s = 4, and blocks of KRONECKER_BLOCK_BITS // 4 columns.
    monkeypatch.setattr(nilpotent, "KRONECKER_BLOCK_BITS", bits)
    points = list(nilpotent.kronecker_points(3, 5))
    assert len(points) == -(-11 // width)
    for b, z in enumerate(points):
        assert z.coords == tuple(
            F(16 ** (j - b * width)) if b * width <= j < (b + 1) * width else F(0) for j in range(11)
        )


# --- mutants on xyz ------------------------------------------------------------
#
# Column 10 is f2, the highest position; output 9 is f1.

XYZ = catalog_get("xyz").tensor()
TOP, F1 = n_dim(3) - 1, 9


def _basis_failed(T, cfg):
    return {"check": "basis_roundtrip"} in verify.run_expdiff_suite(T, cfg)[1]["failures"]


@pytest.mark.parametrize("narrow", [False, True])
def test_roundtrip_check_catches_a_wrong_coefficient_at_the_highest_position(monkeypatch, narrow):
    cfg = RunConfig(seed=7, samples=1)
    with _blocks(narrow):
        assert verify.run_expdiff_suite(XYZ, cfg)[1]["failures"] == []
        monkeypatch.setattr(verify, "exp_diff_inv", _planted_inverse(F1, [(TOP, F(1))]))
        assert _basis_failed(XYZ, cfg)


def test_roundtrip_check_needs_its_bound(monkeypatch):
    # Planted: c Z_7 - Z_8 into f1.  Each column of the round trip minus
    # the identity is nonzero, but with N = c the two cancel at z_K.
    c = 2 ** 40
    cfg = RunConfig(seed=7, samples=1)
    monkeypatch.setattr(verify, "exp_diff_inv", _planted_inverse(F1, [(7, F(c)), (8, F(-1))]))
    assert _basis_failed(XYZ, cfg)
    real = verify.kronecker_points
    monkeypatch.setattr(verify, "kronecker_points", lambda p, bound: real(p, c // 4))
    assert not _basis_failed(XYZ, cfg)
