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

    def fraction(self, max_num: int = 6, max_den: int = 3) -> Fraction:
        num = self.int_range(-max_num, max_num)
        den = self.int_range(1, max_den)
        return Fraction(num, den)

    def nonzero_fraction(self, max_num: int = 6, max_den: int = 3) -> Fraction:
        while True:
            f = self.fraction(max_num, max_den)
            if f:
                return f

    def vector(self, p: int, **kw):
        return tuple(self.fraction(**kw) for _ in range(p))

    def residue_vector(self, p: int, q: int):
        """p residues mod q, each from one 32-bit word of the stream.

        One getrandbits(32 p) call fills its words least significant
        first, in the order p successive getrandbits(32) calls return
        them, so the stream is the same as drawing word by word.
        """
        words = struct.unpack(
            "<%dI" % p, self._rng.getrandbits(32 * p).to_bytes(4 * p, "little")
        )
        return [w % q for w in words]
