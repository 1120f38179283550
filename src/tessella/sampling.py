"""Seeded rational point sampling for the Monte Carlo verifiers.

Samples are dyadic rationals (53 random bits over 2^53, shifted and
scaled into the requested interval), so every sample is exact. Each
coordinate is built as one Fraction from ints: with lo = p/q and
hi = r/s, the value lo + (hi - lo) bits / 2^53 is the numerator
p s 2^53 + (r q - p s) bits over q s 2^53, so no Fraction arithmetic runs
per draw. The samples stay Fractions, the one exact form the verifiers
and the seeded reports read; downstream membership tests put each sample
on a common integer scale (a multiple of its denominators) and decide
by exact integer arithmetic, never by float comparison. A fixed seed
reproduces the exact sample stream, which makes verification reports
byte-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .linalg import Vec, frac

_BITS = 53
_DEN = 1 << _BITS


def _dyadic(lo: Fraction, hi: Fraction, bits: int) -> Fraction:
    """lo + (hi - lo) bits / 2^53, built as one Fraction of ints."""
    p, q = lo.numerator, lo.denominator
    r, s = hi.numerator, hi.denominator
    ps = p * s
    return Fraction((ps << _BITS) + (r * q - ps) * bits, (q * s) << _BITS)


class DyadicSampler:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def unit(self) -> Fraction:
        """Uniform dyadic rational in [0, 1)."""
        return Fraction(self._rng.getrandbits(_BITS), _DEN)

    def in_interval(self, lo, hi) -> Fraction:
        return _dyadic(frac(lo), frac(hi), self._rng.getrandbits(_BITS))

    def in_box(self, box: Sequence[tuple]) -> Vec:
        bits = self._rng.getrandbits
        return tuple([_dyadic(frac(lo), frac(hi), bits(_BITS)) for lo, hi in box])

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return self._rng.randint(lo, hi)
