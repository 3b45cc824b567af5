"""Deterministic sample streams.

All randomized checks in the package draw from this sampler, which is a
thin wrapper around ``random.Random`` restricted to ``getrandbits`` so
that a fixed seed yields the same stream on every platform and Python
version.  Samples are small rationals to keep exact arithmetic cheap.
"""

from __future__ import annotations

import random
import struct
from fractions import Fraction

# The values of fraction(), by (num + 6, den - 1).
_FRACTIONS = tuple(tuple(Fraction(num, den) for den in (1, 2, 3)) for num in range(-6, 7))


class SeededSampler:
    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def bits(self, n: int = 32) -> int:
        return self._rng.getrandbits(n)

    def int_range(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modular, fine for sampling)."""
        span = hi - lo + 1
        return lo + self.bits(32) % span

    def _words(self, n: int) -> bytes:
        """n 32-bit words of the stream, 4n little-endian bytes from one
        getrandbits(32 n) call.

        It fills its words least significant first, in the order n
        successive getrandbits(32) calls return them, so the stream is
        the same as drawing word by word.
        """
        return self._rng.getrandbits(32 * n).to_bytes(4 * n, "little")

    def fraction(self) -> Fraction:
        """num / den, num in [-6, 6] and den in [1, 3], from two words."""
        return self.vector(1)[0]

    def nonzero_fraction(self) -> Fraction:
        while True:
            f = self.fraction()
            if f:
                return f

    def vector(self, p: int):
        """p successive fraction() draws, from 2p words read at once: a
        numerator word, then a denominator word, for each."""
        pairs = struct.iter_unpack("<II", self._words(2 * p))
        return tuple([_FRACTIONS[a % 13][b % 3] for a, b in pairs])

    def residue_vector(self, p: int, q: int):
        """p residues mod q, each from one 32-bit word of the stream."""
        return [w % q for w in struct.unpack("<%dI" % p, self._words(p))]
