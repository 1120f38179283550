"""Lex-least block selections by counting, dealt to F_1..F_k and F_eps.

The engines phrase every construction as a selection of items: atoms,
labelled by their orbits under the two actions, or lattice cells,
labelled by their L1- and L2-cosets. The joint blocks are the connected
components of the graph joining items that share a label.

Inside one joint block the two commuting actions permute each other's
orbits transitively, so every (left label, right label) pair of the block
meets in the same number m >= 1 of items: each block is a complete
bipartite multigraph. On a complete block with p left labels and q right
labels, ask for k items on every right label, k + 1 on `extra` of them,
and at most one item on every left label (exactly one with exact_left).
Such a selection exists exactly when p >= k*q + extra, with equality under
exact_left. The lexicographically least one is a single scan in index
order: keep an item when its left label is unused and its right label
holds fewer than k items, or exactly k while fewer than `extra` right
labels hold k + 1. The scan is exact because every item joining a free
left label to a right label with room is still undecided, so a
completion exists whenever the counts allow one, and keeping an item
lowers the free left labels and the outstanding demand by one each.

`lex_least_selection` keeps its name and stays the per-block entry point,
and this module keeps its name, because `perfbench/tracing.py` looks them
up and counts the length of the first argument as the block's edges.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Optional, Sequence

from .errors import ConstructionFailed


def lex_least_selection(
    left_of: Sequence[Hashable],
    right_of: Sequence[Hashable],
    k: int,
    extra: int,
    exact_left: bool,
) -> Optional[list[int]]:
    """The lex-least selection on one complete block, or None.

    Item e carries the labels left_of[e] and right_of[e], and every
    (left, right) label pair must carry at least one item. Every right
    label takes k items and `extra` of them take k + 1; every left label
    takes at most one item, or exactly one when exact_left. Returns the
    kept item indices in increasing order, or None when the label counts
    admit no selection.
    """
    p, q = len(set(left_of)), len(set(right_of))
    need = k * q + extra
    if extra > q or p < need or (exact_left and p != need):
        return None
    used: set[Hashable] = set()
    held: dict[Hashable, int] = {}
    over = 0  # right labels holding k + 1
    kept = []
    for e, (a, b) in enumerate(zip(left_of, right_of)):
        c = held.get(b, 0)
        if a in used or c > k or (c == k and over == extra):
            continue
        if c == k:
            over += 1
        used.add(a)
        held[b] = c + 1
        kept.append(e)
    return kept


def _blocks(left_of: Sequence[Hashable], right_of: Sequence[Hashable]) -> Iterator[list[int]]:
    """Connected components of the label graph, each a sorted list of
    item indices, in order of their least item."""
    by_left: dict[Hashable, list[int]] = {}
    by_right: dict[Hashable, list[int]] = {}
    for e, (a, b) in enumerate(zip(left_of, right_of)):
        by_left.setdefault(a, []).append(e)
        by_right.setdefault(b, []).append(e)
    seen = [False] * len(left_of)
    for start in range(len(left_of)):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [], [start]
        while stack:
            e = stack.pop()
            block.append(e)
            # popping a label expands it once, so the search is linear
            for f in by_left.pop(left_of[e], []) + by_right.pop(right_of[e], []):
                if not seen[f]:
                    seen[f] = True
                    stack.append(f)
        yield sorted(block)


def select_and_deal(
    left_of: Sequence[Hashable],
    right_of: Sequence[Hashable],
    k: int,
    eps,
    exact_left: bool,
) -> tuple[list[list[int]], list[int]]:
    """Lex-least selection per joint block, dealt to F_1..F_k and F_eps.

    Item i carries the left label left_of[i] and the right label
    right_of[i]; the joint blocks are the connected components of the
    graph joining items that share a label. On a block with q right
    labels, every right label takes k selected items, and exactly eps * q
    of them take k + 1; every left label takes at most one item, or
    exactly one when exact_left. Per right label, the selected items in
    index order go to F_1..F_k and the extra one to F_eps. Returns the
    sorted item indices of F_1..F_k and of F_eps.

    Once the engines' measure condition holds, the theorem guarantees a
    complete block with an integral eps * q and a selection; a block
    that breaks this is an engine fault and raises ConstructionFailed,
    whose witness names the block's least item, p, q, k and eps * q.
    """
    selected: list[int] = []
    for block in _blocks(left_of, right_of):
        left = [left_of[e] for e in block]
        right = [right_of[e] for e in block]
        p, q = len(set(left)), len(set(right))
        extra = eps * q
        witness = {"item": block[0], "p": p, "q": q, "k": k, "extra": extra}
        if len(set(zip(left, right))) != p * q:
            raise ConstructionFailed("a joint block is not complete bipartite", witness)
        if extra.denominator != 1:
            raise ConstructionFailed("non-integer k+1 label count on a joint block", witness)
        sel = lex_least_selection(left, right, k, int(extra), exact_left)
        if sel is None:
            raise ConstructionFailed("no selection on a joint block", witness)
        selected += [block[e] for e in sel]

    fs: list[list[int]] = [[] for _ in range(k)]
    feps: list[int] = []
    dealt: dict[Hashable, int] = {}
    for e in sorted(selected):
        i = dealt.get(right_of[e], 0)
        dealt[right_of[e]] = i + 1
        (fs[i] if i < k else feps).append(e)
    return fs, feps
