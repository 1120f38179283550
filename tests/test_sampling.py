import random
from fractions import Fraction

from hypothesis import given, strategies as st

from tessella.linalg import frac
from tessella.sampling import DyadicSampler


def test_same_seed_same_stream():
    a = DyadicSampler(7)
    b = DyadicSampler(7)
    assert [a.unit() for _ in range(50)] == [b.unit() for _ in range(50)]


def test_different_seeds_diverge():
    a = DyadicSampler(1)
    b = DyadicSampler(2)
    assert [a.unit() for _ in range(8)] != [b.unit() for _ in range(8)]


def test_units_are_dyadic_and_in_range():
    s = DyadicSampler(0)
    for _ in range(200):
        u = s.unit()
        assert 0 <= u < 1
        assert u.denominator & (u.denominator - 1) == 0  # power of two


def test_interval_and_box_bounds():
    s = DyadicSampler(3)
    for _ in range(100):
        v = s.in_interval(Fraction(-1, 3), Fraction(5, 2))
        assert Fraction(-1, 3) <= v < Fraction(5, 2)
    box = ((0, 1), (Fraction(-1, 2), Fraction(1, 2)), (2, 3))
    for _ in range(50):
        p = s.in_box(box)
        assert len(p) == 3
        assert all(lo <= c < hi for c, (lo, hi) in zip(p, box))


def test_integer_inclusive():
    s = DyadicSampler(4)
    seen = {s.integer(0, 2) for _ in range(200)}
    assert seen == {0, 1, 2}


# ------------------------------ draws against the Fraction formula
# Each coordinate was lo + (hi - lo) * Fraction(bits, 2**53); the sampler
# now builds the same value as one Fraction of ints.

rationals = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6)
interval_values = st.one_of(rationals, st.integers(-50, 50),
                            rationals.map(str), st.integers(-50, 50).map(str))


def _old_draw(rng, lo, hi):
    lo, hi = frac(lo), frac(hi)
    return lo + (hi - lo) * Fraction(rng.getrandbits(53), 2 ** 53)


@given(st.lists(st.tuples(interval_values, interval_values), min_size=1, max_size=4),
       st.integers(0, 2 ** 64), st.integers(1, 5))
def test_draws_equal_the_fraction_formula(box, seed, rounds):
    sampler, rng = DyadicSampler(seed), random.Random(seed)
    for _ in range(rounds):
        got = sampler.in_box(box)
        want = tuple(_old_draw(rng, lo, hi) for lo, hi in box)
        assert got == want
        assert all(type(x) is Fraction for x in got)
        lo, hi = box[0]
        assert sampler.in_interval(lo, hi) == _old_draw(rng, lo, hi)
