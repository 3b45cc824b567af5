import importlib
from fractions import Fraction

import pytest

from cubicontact import verify
from cubicontact.catalog import catalog_get
from cubicontact.contact import sample_chart_point
from cubicontact.nilpotent import NElem, n_dim
from cubicontact.reports import RunConfig
from cubicontact.sampling import SeededSampler

bch_module = importlib.import_module("cubicontact.bch")


def _residue_vector_word_by_word(sampler, p, q):
    """Reference: one 32-bit draw per residue."""
    return [sampler.bits(32) % q for _ in range(p)]


@pytest.mark.parametrize("p", [1, 3, 27])
@pytest.mark.parametrize("q", [5, 13])
@pytest.mark.parametrize("seed", [0, 7, 11, 5 ^ (13 << 20)])
def test_residue_vector_same_stream_as_word_by_word(p, q, seed):
    fast, ref = SeededSampler(seed), SeededSampler(seed)
    for _ in range(50):
        v = fast.residue_vector(p, q)
        assert v == _residue_vector_word_by_word(ref, p, q)
        assert all(0 <= r < q for r in v)
    assert fast.bits() == ref.bits()


def _fraction_word_by_word(sampler):
    """Reference: a numerator word, then a denominator word."""
    num = -6 + sampler.bits(32) % 13
    return Fraction(num, 1 + sampler.bits(32) % 3)


@pytest.mark.parametrize("p", [0, 1, 3, 27])
@pytest.mark.parametrize("seed", [0, 7, 11, 5 ^ (13 << 20)])
def test_vector_same_stream_as_word_by_word(p, seed):
    fast, ref = SeededSampler(seed), SeededSampler(seed)
    for _ in range(50):
        v = fast.vector(p)
        assert v == tuple(_fraction_word_by_word(ref) for _ in range(p))
        assert fast.fraction() == _fraction_word_by_word(ref)
        assert all(type(c) is Fraction for c in v)
    assert fast.bits() == ref.bits()



def _fractions_word_by_word(sampler, n):
    return tuple(_fraction_word_by_word(sampler) for _ in range(n))


def _nonzero_fraction_word_by_word(sampler):
    while True:
        f = _fraction_word_by_word(sampler)
        if f:
            return f


# The draws below reach the reports only as pass or fail, so the golden
# digests would not see them reordered.

@pytest.mark.parametrize("p", [1, 3, 27])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_chart_point_draws_in_word_by_word_order(p, seed):
    # x1, x2, x3_m, x3_l, z, then y, redrawn while zero.
    fast, ref = SeededSampler(seed), SeededSampler(seed)
    for _ in range(20):
        pt = sample_chart_point(fast, p)
        x1, x2 = _fractions_word_by_word(ref, p), _fractions_word_by_word(ref, p)
        x3_m, x3_l, z = _fractions_word_by_word(ref, 3)
        y = _nonzero_fraction_word_by_word(ref)
        assert pt.coords() == (y, z, x3_m, x3_l) + x1 + x2
    assert fast.bits() == ref.bits()


def test_group_suite_multiplies_successive_draws(monkeypatch):
    # Each sample draws a, b and c, each 3p + 2 fractions in basis order,
    # and multiplies (ab)c, a(bc), a(-a) and a0 in that order.
    T = catalog_get("xq5").tensor()
    cfg = RunConfig(seed=7, samples=4)
    real, calls = bch_module.bch, []

    def recording(X, Y, T):
        calls.append((X, Y))
        return real(X, Y, T)

    # The suite reaches bch through verify's own binding or through bch's.
    monkeypatch.setattr(bch_module, "bch", recording)
    monkeypatch.setattr(verify, "bch", recording, raising=False)
    assert verify.run_group_suite(T, cfg) == ("pass", {"samples": 4, "failures": []})
    p, ref = T.dim, SeededSampler(cfg.seed)
    assert len(calls) == 6 * cfg.samples
    for s in range(cfg.samples):
        a, b, c = (NElem(_fractions_word_by_word(ref, n_dim(p))) for _ in range(3))
        ab, ab_c, bc, a_bc, inverse, identity = calls[6 * s:6 * s + 6]
        assert ab == (a, b) and ab_c == (real(a, b, T), c)
        assert bc == (b, c) and a_bc == (a, real(b, c, T))
        assert inverse == (a, -a) and identity == (a, NElem.zero(p))
