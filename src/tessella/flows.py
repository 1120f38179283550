"""Integer flow kernel for degree-constrained edge selections.

The engines phrase every construction as: select a subset of the edges of
a bipartite multigraph so that each left node keeps a prescribed number of
selected edges, each right node likewise, optionally with a forced total.
Feasibility is a circulation-with-lower-bounds check; the returned
selection is the lexicographically least feasible one (edges are forced
one at a time in index order), which makes every construction in the
package deterministic.

`select_and_deal` is the one selection both engines share: the items are
atoms (labelled by their orbits under the two actions) or lattice cells
(labelled by their cosets), the joint blocks are the connected components
of the labelling, and the selected items are dealt per right label to the
domains F_1..F_k and the remainder F_eps.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterator, Optional, Sequence

from .errors import ConditionFails


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, cap: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def maxflow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        q.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def _feasible(
    left_of: Sequence[int],
    right_of: Sequence[int],
    left_bounds: Sequence[tuple[int, int]],
    right_bounds: Sequence[tuple[int, int]],
    total_bounds: Optional[tuple[int, int]],
    forced: dict[int, int],
) -> bool:
    """Does a selection exist respecting all bounds and the forced edges?

    Graph: source -> left node -> (edge) -> right node -> sink, with a
    sink -> source return arc carrying the total; every arc has a lower
    bound, reduced to plain max-flow the standard way (excess nodes).
    """
    n_edges = len(left_of)
    nl, nr = len(left_bounds), len(right_bounds)
    big = n_edges + 1
    src, snk = 0, 1
    left0, right0 = 2, 2 + nl
    n = 2 + nl + nr
    sstar, tstar = n, n + 1
    din = _Dinic(n + 2)
    excess = [0] * n

    def arc(u: int, v: int, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError("empty bound interval")
        if hi > lo:
            din.add(u, v, hi - lo)
        if lo:
            excess[v] += lo
            excess[u] -= lo

    for i, (lo, hi) in enumerate(left_bounds):
        arc(src, left0 + i, lo, hi)
    for j, (lo, hi) in enumerate(right_bounds):
        arc(right0 + j, snk, lo, hi)
    for e in range(n_edges):
        lo = hi = forced[e] if e in forced else None
        if lo is None:
            lo, hi = 0, 1
        arc(left0 + left_of[e], right0 + right_of[e], lo, hi)
    tlo, thi = total_bounds if total_bounds is not None else (0, big)
    arc(snk, src, tlo, thi)

    need = 0
    for v in range(n):
        if excess[v] > 0:
            din.add(sstar, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            din.add(v, tstar, -excess[v])
    return din.maxflow(sstar, tstar) == need


def lex_least_selection(
    left_of: Sequence[int],
    right_of: Sequence[int],
    left_bounds: Sequence[tuple[int, int]],
    right_bounds: Sequence[tuple[int, int]],
    total_bounds: Optional[tuple[int, int]] = None,
) -> Optional[list[int]]:
    """Greedy-canonical feasible edge selection, or None.

    Edges are identified by index; edge e joins left node left_of[e] to
    right node right_of[e]. Greedy in index order: an edge is kept exactly
    when keeping it (on top of earlier decisions) still admits a feasible
    completion. When the selection size is pinned (exact node degrees, or
    exact total_bounds) this is the lexicographically least feasible set
    of kept indices; with slack bounds it is the earliest-inclusion
    maximal choice.
    """
    forced: dict[int, int] = {}
    if not _feasible(left_of, right_of, left_bounds, right_bounds, total_bounds, forced):
        return None
    for e in range(len(left_of)):
        forced[e] = 1
        if not _feasible(left_of, right_of, left_bounds, right_bounds, total_bounds, forced):
            forced[e] = 0
    return [e for e in range(len(left_of)) if forced[e] == 1]


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
    graph joining items that share a label. On a block with r right
    labels, every right label takes k selected items, and exactly eps * r
    of them take k + 1; every left label takes at most one item, or
    exactly one when exact_left. Per right label, the selected items in
    index order go to F_1..F_k and the extra one to F_eps. Returns the
    sorted item indices of F_1..F_k and of F_eps; ConditionFails when a
    block admits no selection.
    """
    selected: list[int] = []
    for block in _blocks(left_of, right_of):
        lmap: dict[Hashable, int] = {}
        rmap: dict[Hashable, int] = {}
        left = [lmap.setdefault(left_of[e], len(lmap)) for e in block]
        right = [rmap.setdefault(right_of[e], len(rmap)) for e in block]
        extra = eps * len(rmap)
        if extra.denominator != 1:
            raise ConditionFails("non-integer k+1 label count on a joint block")
        if extra == 0:
            right_bounds = [(k, k)] * len(rmap)
            total = None
        else:
            right_bounds = [(k, k + 1)] * len(rmap)
            t = k * len(rmap) + int(extra)
            total = (t, t)
        left_bounds = [(1, 1) if exact_left else (0, 1)] * len(lmap)
        sel = lex_least_selection(left, right, left_bounds, right_bounds, total)
        if sel is None:
            raise ConditionFails("no feasible selection on a joint block")
        selected += [block[e] for e in sel]

    fs: list[list[int]] = [[] for _ in range(k)]
    feps: list[int] = []
    dealt: dict[Hashable, int] = {}
    for e in sorted(selected):
        i = dealt.get(right_of[e], 0)
        dealt[right_of[e]] = i + 1
        (fs[i] if i < k else feps).append(e)
    return fs, feps
