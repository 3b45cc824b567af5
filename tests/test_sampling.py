from fractions import Fraction

import pytest

from cubicontact.sampling import SeededSampler


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

