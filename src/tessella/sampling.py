"""Seeded rational point sampling for the Monte Carlo verifiers.

Samples are dyadic rationals (53 random bits over 2^53, shifted and
scaled into the requested interval), so every sample is exact. Downstream
membership tests put each sample on a common integer scale (a multiple of
its denominators) and decide by exact integer arithmetic, never by float
comparison. A fixed seed reproduces the exact sample stream, which makes
verification reports byte-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .linalg import Vec, frac

_BITS = 53
_DEN = 1 << _BITS


class DyadicSampler:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def unit(self) -> Fraction:
        """Uniform dyadic rational in [0, 1)."""
        return Fraction(self._rng.getrandbits(_BITS), _DEN)

    def in_interval(self, lo, hi) -> Fraction:
        lo, hi = frac(lo), frac(hi)
        return lo + (hi - lo) * self.unit()

    def in_box(self, box: Sequence[tuple]) -> Vec:
        return tuple(self.in_interval(lo, hi) for lo, hi in box)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return self._rng.randint(lo, hi)
