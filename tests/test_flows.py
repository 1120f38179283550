from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tessella.errors import ConditionFails
from tessella.flows import lex_least_selection, select_and_deal


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


def test_single_edge_forced():
    assert lex_least_selection([0], [0], [(1, 1)], [(1, 1)]) == [0]


def test_prefers_lowest_edge():
    # two parallel edges, one must be chosen
    sel = lex_least_selection([0, 0], [0, 0], [(1, 1)], [(1, 1)])
    assert sel == [0]


def test_lower_bound_forces_later_edge():
    # edge 0 saturates right node 0; right node 1 needs its only edge
    sel = lex_least_selection(
        [0, 0, 1], [0, 1, 1],
        [(0, 2), (1, 1)],
        [(1, 1), (1, 1)])
    assert sel == [0, 2]


def test_infeasible_returns_none():
    assert lex_least_selection([0], [0], [(0, 0)], [(1, 1)]) is None
    assert lex_least_selection(
        [0, 0], [0, 1], [(0, 1)], [(1, 1), (1, 1)]) is None


def test_total_bound_caps_selection():
    # without the cap all four edges would satisfy the node ranges
    sel = lex_least_selection(
        [0, 0, 1, 1], [0, 1, 0, 1],
        [(0, 2), (0, 2)],
        [(0, 2), (0, 2)],
        total_bounds=(2, 2))
    assert sel == [0, 1]


@given(st.data())
def test_matches_brute_force(data):
    nl = data.draw(st.integers(1, 3))
    nr = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(0, 6))
    left_of = data.draw(st.lists(
        st.integers(0, nl - 1), min_size=m, max_size=m))
    right_of = data.draw(st.lists(
        st.integers(0, nr - 1), min_size=m, max_size=m))
    bound = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda t: (min(t), max(t)))
    left_bounds = data.draw(st.lists(bound, min_size=nl, max_size=nl))
    right_bounds = data.draw(st.lists(bound, min_size=nr, max_size=nr))
    use_total = data.draw(st.booleans())
    total = data.draw(bound) if use_total else None
    got = lex_least_selection(left_of, right_of, left_bounds, right_bounds, total)
    want = brute_greedy(left_of, right_of, left_bounds, right_bounds, total)
    assert got == want
    if got is not None and total is not None and total[0] == total[1]:
        # pinned total: the greedy result is the lex-least index list
        feasible = [
            list(sel) for sel in combinations(range(len(left_of)), total[0])
            if _ok(sel, left_of, right_of, left_bounds, right_bounds)
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
    nr = data.draw(st.integers(1, 4))
    # plant k distinct left labels per right label, so a selection exists;
    # without exact_left, some left labels may stay unused
    nl = k * nr + (0 if exact_left else data.draw(st.integers(0, 2)))
    edges = [(j * k + i, j) for j in range(nr) for i in range(k)]
    edges += data.draw(st.lists(
        st.tuples(st.integers(0, nl - 1), st.integers(0, nr - 1)), max_size=8))
    edges = data.draw(st.permutations(edges))
    # labels need only be hashable
    left_of = [f"l{a}" for a, _ in edges]
    right_of = [("r", b) for _, b in edges]

    fs, feps = select_and_deal(left_of, right_of, k, 0, exact_left)

    assert feps == []
    whole = lex_least_selection(
        [a for a, _ in edges], [b for _, b in edges],
        [(1, 1) if exact_left else (0, 1)] * nl, [(k, k)] * nr)
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
    left_of = ["a", "b", "c", "b", "c"]
    right_of = ["x", "x", "y", "y", "x"]
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
    with pytest.raises(ConditionFails):
        select_and_deal(["a", "a"], ["x", "y"], 1, 0, True)
