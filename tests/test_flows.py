import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from tessella.errors import ConstructionFailed
from tessella.flows import joint_blocks, lex_least_selection, select_and_deal
from tessella.lattices import EucLattice, _CellSystem, covolume

from test_finite import cyclic_pair
from test_lattices import random_equal_covolume_pair


def brute_greedy(left_of, right_of, left_bounds, right_bounds, total_bounds):
    """Reference: all feasible selections, keep-early-edges preference
    (the greatest inclusion indicator; with pinned totals that equals the
    lex-least list of kept indices)."""
    m = len(left_of)
    candidates = []
    for size in range(m + 1):
        for sel in combinations(range(m), size):
            if total_bounds and not (total_bounds[0] <= size <= total_bounds[1]):
                continue
            ld = [0] * len(left_bounds)
            rd = [0] * len(right_bounds)
            for e in sel:
                ld[left_of[e]] += 1
                rd[right_of[e]] += 1
            if all(lo <= d <= hi for d, (lo, hi) in zip(ld, left_bounds)) and \
               all(lo <= d <= hi for d, (lo, hi) in zip(rd, right_bounds)):
                candidates.append(sel)
    if not candidates:
        return None
    best = max(candidates,
               key=lambda sel: tuple(1 if e in sel else 0 for e in range(m)))
    return list(best)


def bounds(p, q, k, extra, exact_left):
    """The degree bounds `lex_least_selection` meets, for `brute_greedy`:
    left (1, 1) or (0, 1), right (k, k + 1), total pinned at k*q + extra."""
    t = k * q + extra
    return [(1, 1) if exact_left else (0, 1)] * p, [(k, k + 1)] * q, (t, t)


def complete_block(draw, p, q, m):
    """The m * p * q items of a complete block on labels 0..p-1, 0..q-1,
    in a drawn order."""
    return draw(st.permutations(list(product(range(p), range(q))) * m))


def test_single_edge_forced():
    assert lex_least_selection([0], [0], 1, 0, True) == [0]


def test_prefers_lowest_edge():
    # two parallel edges, one must be chosen
    assert lex_least_selection([0, 0], [0, 0], 1, 0, True) == [0]


def test_lower_bound_forces_later_edge():
    # right label 0 takes items 0 and 1 (the one k + 1 slot), so item 2
    # has no room and left label 2 must go to right label 1 through item 5
    sel = lex_least_selection([0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1], 1, 1, True)
    assert sel == [0, 1, 5]


def test_infeasible_returns_none():
    # one left label cannot cover two right labels
    assert lex_least_selection([0, 0], [0, 1], 1, 0, True) is None
    # packing: too few left labels
    assert lex_least_selection([0, 0], [0, 1], 1, 0, False) is None
    # exact_left: too many left labels
    assert lex_least_selection([0, 1], [0, 0], 1, 0, True) is None
    # more k + 1 labels than right labels
    assert lex_least_selection([0, 1, 2], [0, 0, 0], 1, 2, True) is None


def test_total_bound_caps_selection():
    # four left labels, but k * q + extra = 3 items: after right label 0
    # takes the one k + 1 slot, the last item of right label 1 is refused
    left_of = [0, 0, 1, 1, 2, 2, 3, 3]
    right_of = [0, 1, 0, 1, 0, 1, 0, 1]
    assert lex_least_selection(left_of, right_of, 1, 1, False) == [0, 2, 5]


@given(st.data())
def test_matches_brute_force(data):
    p = data.draw(st.integers(1, 4))
    q = data.draw(st.integers(1, min(3, 8 // p)))
    m = data.draw(st.integers(1, 8 // (p * q)))
    k = data.draw(st.integers(0, 2))
    extra = data.draw(st.integers(0, q))
    exact_left = data.draw(st.booleans())
    items = complete_block(data.draw, p, q, m)
    left_of = [a for a, _ in items]
    right_of = [b for _, b in items]
    lb, rb, total = bounds(p, q, k, extra, exact_left)
    got = lex_least_selection(left_of, right_of, k, extra, exact_left)
    assert got == brute_greedy(left_of, right_of, lb, rb, total)
    if got is not None:
        # pinned total: the greedy result is the lex-least index list
        feasible = [
            list(sel) for sel in combinations(range(len(items)), total[0])
            if _ok(sel, left_of, right_of, lb, rb)
        ]
        assert got == min(feasible)


def _ok(sel, left_of, right_of, left_bounds, right_bounds):
    ld = [0] * len(left_bounds)
    rd = [0] * len(right_bounds)
    for e in sel:
        ld[left_of[e]] += 1
        rd[right_of[e]] += 1
    return all(lo <= d <= hi for d, (lo, hi) in zip(ld, left_bounds)) and \
        all(lo <= d <= hi for d, (lo, hi) in zip(rd, right_bounds))


# --------------------------------------------------------- select_and_deal


@given(st.data())
def test_select_and_deal_is_one_selection_dealt(data):
    k = data.draw(st.integers(1, 2))
    exact_left = data.draw(st.booleans())
    # one or two complete blocks, 8 items at most: block b has q right
    # labels, k * q + slack left labels and m items per label pair
    items, nl, nr = [], 0, 0
    for _ in range(data.draw(st.integers(1, 2))):
        room = 8 - len(items)
        if room < k:
            break
        q = data.draw(st.integers(1, isqrt(room // k)))
        slack = 0 if exact_left else data.draw(st.integers(0, room // q - k * q))
        p = k * q + slack
        m = data.draw(st.integers(1, room // (p * q)))
        items += [(nl + a, nr + b) for a, b in complete_block(data.draw, p, q, m)]
        nl, nr = nl + p, nr + q
    items = data.draw(st.permutations(items))
    # labels need only be hashable
    left_of = [f"l{a}" for a, _ in items]
    right_of = [("r", b) for _, b in items]

    fs, feps = select_and_deal(left_of, right_of, k, 0, exact_left)

    assert feps == []
    lb, rb, total = bounds(nl, nr, k, 0, exact_left)
    whole = brute_greedy([a for a, _ in items], [b for _, b in items], lb, rb, total)
    assert sorted(e for f in fs for e in f) == whole
    assert all(f == sorted(f) for f in fs)
    for f in fs:
        # each domain takes one item per right label
        assert sorted(right_of[e] for e in f) == sorted({*right_of})
    left_counts = [sum(left_of[e] == f"l{a}" for f in fs for e in f)
                   for a in range(nl)]
    assert all(c == 1 if exact_left else c <= 1 for c in left_counts)


def test_select_and_deal_sends_the_extra_item_to_f_eps():
    # one block, right labels x and y, eps = 1/2: one of them takes k + 1
    left_of = ["a", "b", "c", "b", "c", "a"]
    right_of = ["x", "x", "y", "y", "x", "y"]
    fs, feps = select_and_deal(left_of, right_of, 1, Fraction(1, 2), True)
    assert fs == [[0, 2]]
    assert feps == [1]


def test_select_and_deal_blocks_are_independent():
    # interleaved components {0, 2} and {1, 3, 4, 5}; in the second, item
    # 3 would reuse left label 0, so right label 4 takes item 4
    left_of = [2, 0, 2, 0, 1, 1]
    right_of = [5, 3, 5, 4, 4, 3]
    fs, feps = select_and_deal(left_of, right_of, 1, 0, False)
    assert fs == [[0, 1, 4]] and feps == []


def test_select_and_deal_infeasible_block():
    # the condition would have refused this block: one left label for two
    # right labels is an engine fault, not an obstruction
    with pytest.raises(ConstructionFailed) as err:
        select_and_deal(["a", "a"], ["x", "y"], 1, 0, True)
    assert err.value.witness == {"item": 0, "p": 1, "q": 2, "k": 1, "extra": 0}


def test_select_and_deal_rejects_incomplete_block():
    # the pair (a, y) has no item, so the block is not complete bipartite
    with pytest.raises(ConstructionFailed, match="not complete") as err:
        select_and_deal(["c", "a", "b", "b"], ["z", "x", "x", "y"], 1, 0, False)
    assert err.value.witness == {"item": 1, "p": 2, "q": 2, "k": 1, "extra": 0}


def test_select_and_deal_rejects_fractional_extra():
    with pytest.raises(ConstructionFailed, match="non-integer") as err:
        select_and_deal(["a", "b"], ["x", "x"], 1, Fraction(1, 2), True)
    assert err.value.witness["extra"] == Fraction(1, 2)


# ------------------------------------------- joint blocks are complete


def assert_complete_uniform(left_of, right_of):
    for block in joint_blocks(left_of, right_of):
        pairs = Counter((left_of[e], right_of[e]) for e in block)
        p = len({left_of[e] for e in block})
        q = len({right_of[e] for e in block})
        assert len(pairs) == p * q
        assert len(set(pairs.values())) == 1


def orbit_labels(action):
    labels = [0] * action.space.n
    for i, orbit in enumerate(action.orbits()):
        for a in orbit:
            labels[a] = i
    return labels


def test_commuting_shift_blocks_are_complete():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 24)
        steps = []
        for _ in range(2):
            order = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            unit = rng.choice([u for u in range(1, order + 1) if gcd(u, order) == 1])
            steps += [n // order * unit % n, order]
        pair = cyclic_pair(n, *steps)
        assert_complete_uniform(orbit_labels(pair.left), orbit_labels(pair.right))


def test_lattice_cell_blocks_are_complete():
    rng = random.Random(53)
    for _ in range(12):
        l1, base = random_equal_covolume_pair(rng)
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        if scale > 1:
            scale = 1 / scale
        l2 = EucLattice([[x * scale for x in row] for row in base.basis])
        eps = covolume(l1) / covolume(l2) % 1
        cs = _CellSystem(l1, l2, first_axis_split=eps.denominator)
        assert_complete_uniform(cs.left, cs.right)
