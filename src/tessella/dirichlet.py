"""Dirichlet cells of rational lattices in dimensions 1 to 3.

The cell of a base point x0 is the set of points at least as close to x0
as to every other point of the orbit x0 + L. Both representations are
produced exactly: the facet half-spaces and the vertex list, plus the
exact volume (a cone decomposition from x0).

Integer scaling. With D the lcm of the basis denominators, D·L is an
integer lattice (`L.form`); work in the coordinates y = D·x and write
the base point as D·x0 = Y/E with Y integral. The bisector of a lattice
vector v = w/D, v·x <= v·x0 + |v|^2/2, is then w·y <= c/(2E) with the
integer c = 2 w·Y + E|w|^2. Vertices are solved by Cramer's rule from integer
determinants and adjugates, tested with `w·P <= c·det`, and brought to
one common denominator, so incidences, orderings and cone determinants
are integer arithmetic too. Fractions are built only for the returned
`ConvexCell`.

Basis reduction. The integer basis of D·L is LLL-reduced (exact,
delta = 3/4) before the short vectors are enumerated, so the
enumeration box, and with it the cost, is set by the lattice and not by
how skewed the given generators are; `linalg.det_adj` bounds the box.

Independence of the basis. The bisectors kept are exactly the facets:
the strictly Voronoi-relevant vectors, the nonzero v in L with
|v·u| < |u|^2 for every u in L other than 0 and +-v, that is, v/2
strictly closer to 0 and v than to any other lattice point. That set is
a property of the lattice alone, and the enumeration bound only has to
exceed it (see `_relevant_vectors`). Everything after it is determined
by the set and x0, so equal lattices give equal cells, value for value
and in the same order.

Self-check. Before it is returned, the cell is re-verified with explicit
checks that also run under `python -O`: its volume must equal the
covolume |det B| (computed by `lattices.covolume`, a separate route) and
its vertex set must be symmetric about x0. A failure raises
`ConstructionFailed` with the volume, the covolume and the symmetry
verdict as its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import factorial, gcd, isqrt, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import ConstructionFailed, DimensionTooLarge
from .lattices import EucLattice, covolume
from .linalg import Vec, det_adj, dot, frac, gram_schmidt, integer_form

IVec = tuple[int, ...]


@dataclass(frozen=True)
class ConvexCell:
    """Bounded rational polytope: facet half-spaces dot(n, x) <= c together
    with the matching vertex list and the exact volume."""

    halfspaces: tuple[tuple[Vec, Fraction], ...]
    vertices: tuple[Vec, ...]
    volume: Fraction

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def contains(self, point: Sequence) -> bool:
        p = tuple(frac(x) for x in point)
        return all(dot(nrm, p) <= off for nrm, off in self.halfspaces)


def _dot(a, b):
    """`linalg.dot` for the integer hot loops; map avoids a generator."""
    return sum(map(mul, a, b))


def _cross(a: IVec, b: IVec) -> IVec:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _solve(rows: Sequence[IVec], rhs: Sequence[int]) -> tuple[IVec, int]:
    """Cramer's rule for an integer n x n system, n <= 3: returns
    (adj(rows)·rhs, det(rows)), so the solution is the first over the
    second; det 0 means singular."""
    if len(rows) == 1:
        return (rhs[0],), rows[0][0]
    if len(rows) == 2:
        (a0, a1), (b0, b1) = rows
        return (b1 * rhs[0] - a1 * rhs[1], a0 * rhs[1] - b0 * rhs[0]), a0 * b1 - a1 * b0
    a, b, c = rows
    bc, ca, ab = _cross(b, c), _cross(c, a), _cross(a, b)
    return tuple(rhs[0] * x + rhs[1] * y + rhs[2] * z
                 for x, y, z in zip(bc, ca, ab)), _dot(a, bc)


def _lll(basis: Sequence[IVec]) -> list[IVec]:
    """Exact LLL reduction (delta = 3/4) of integer basis vectors."""
    b = [tuple(v) for v in basis]
    norms, mu = gram_schmidt(b)
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = tuple(x - q * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            norms, mu = gram_schmidt(b)
            k = max(k - 1, 1)
    return b


def _relevant_vectors(basis: Sequence[IVec]) -> list[IVec]:
    """Lattice vectors whose bisector carries a facet of the cell of the
    origin, lexicographically sorted; `basis` is an integer basis.

    Every point of the cell lies within the covering radius mu of the
    lattice, and mu^2 <= (1/4) sum of squared Gram-Schmidt norms (round
    one basis direction at a time), so facet vectors satisfy
    |v| <= 2 mu. A vector v survives iff v/2 is strictly closer to 0 than
    to every other enumerated point but v; vectors beyond the bound can
    never decide this, because rejecting v/2 would force |u| <= |v|. The
    kept set is symmetric, so v is tested against one of each pair +-u,
    as |v·u| < |u|^2, and only one of each pair +-v is tested. A vector
    whose bisector meets the cell only in a lower-dimensional face, such
    as (1, 1, 0) for Z^3, has v/2 on another facet's bisector and fails.
    """
    bound = sum(gram_schmidt(basis)[0], Fraction(0))
    d, rows = det_adj(tuple(zip(*basis)))
    # |z_i| <= sqrt(bound) * |row i of B^-1|, with B^-1 = adj / d
    ranges = [range(-m, m + 1) for m in (
        isqrt(bound.numerator * bound.denominator * _dot(r, r)) // (bound.denominator * abs(d))
        for r in rows)]
    limit = bound.numerator // bound.denominator  # |w|^2 is an integer
    zero = (0,) * len(basis)
    half = []
    for z in product(*ranges):
        w = tuple(sum(zi * col[i] for zi, col in zip(z, basis)) for i in range(len(basis)))
        ww = _dot(w, w)
        if w > zero and ww <= limit:
            half.append((ww, w))
    half.sort()
    kept = []
    for _, v in half:
        if all(abs(_dot(v, u)) < uu for uu, u in half if u != v):
            kept.append(v)
            kept.append(tuple(-x for x in v))
    return sorted(kept)


def _vertices(ws: Sequence[IVec], cs: Sequence[int], n: int) -> tuple[list[IVec], int]:
    """Vertices of the polytope {y : w·y <= c/h for each (w, c)} as
    lexicographically sorted integer numerators V, y = V / (q·h), and
    their common q.

    Each nonsingular n-fold intersection y = P / (det·h) is kept when
    it satisfies every inequality, w·P <= c·det after making det
    positive; a point on more than n bisectors is found once per
    n-subset and kept once, by its reduced (P, det) key.
    """
    found = set()
    for combo in combinations(range(len(ws)), n):
        p, d = _solve([ws[i] for i in combo], [cs[i] for i in combo])
        if d == 0:
            continue
        if d < 0:
            p, d = tuple(-x for x in p), -d
        if all(_dot(w, p) <= c * d for w, c in zip(ws, cs)):
            g = gcd(d, *p)
            found.add((tuple(x // g for x in p), d // g))
    q = 1
    for _, d in found:
        q = lcm(q, d)
    return sorted(tuple(x * (q // d) for x in p) for p, d in found), q


def _volume(facets, verts, center: IVec, n: int) -> int:
    """n! times the volume of the cell in numerator units: the cone from
    the interior center over each facet, as integer determinants."""
    if n == 1:
        return verts[-1][0] - verts[0][0]
    rel = {v: tuple(x - y for x, y in zip(v, center)) for v in verts}
    if n == 2:
        total = 0
        for a, b in facets:
            pa, pb = rel[a], rel[b]
            total += abs(pa[0] * pb[1] - pa[1] * pb[0])
        return total
    total = 0
    for inc in facets:
        # fan from one vertex; the others, seen from it, lie within a
        # half-plane, so the sign of a cross product orders them
        p0 = inc[0]
        axis = _cross(tuple(x - y for x, y in zip(inc[1], p0)),
                      tuple(x - y for x, y in zip(inc[2], p0)))

        def turn(a, b, p0=p0, axis=axis):
            da = tuple(x - y for x, y in zip(a, p0))
            db = tuple(x - y for x, y in zip(b, p0))
            s = _dot(axis, _cross(da, db))
            return -1 if s > 0 else (1 if s < 0 else 0)

        ring = sorted(inc[1:], key=cmp_to_key(turn))
        q0 = rel[p0]
        total += abs(sum(_dot(q0, _cross(rel[a], rel[b])) for a, b in zip(ring, ring[1:])))
    return total


def dirichlet_domain(L: EucLattice, x0: Optional[Sequence] = None) -> ConvexCell:
    """The cell of x0 in the orbit x0 + L, exact in dimensions 1 to 3.

    Facet half-spaces are the bisectors of the relevant lattice vectors,
    vertices come from nonsingular n-fold bisector intersections, and the
    volume is a cone decomposition from x0. The cell is re-verified to
    have volume equal to the covolume and to be centrally symmetric about
    x0; otherwise ConstructionFailed is raised.
    """
    n = L.dim
    if n > 3:
        raise DimensionTooLarge("cells are computed in dimensions 1 to 3 only")
    E, (EY,) = integer_form((x0 if x0 is not None else [0] * n,))
    if len(EY) != n:
        raise ValueError("base point dimension does not match the lattice")
    D = L.form.scale
    h = 2 * E
    Y = tuple(D * y for y in EY)
    ws = _relevant_vectors(_lll(list(zip(*L.form.rows))))
    cs = [2 * _dot(w, Y) + E * _dot(w, w) for w in ws]
    verts, q = _vertices(ws, cs, n)
    # every kept bisector carries a facet: its vertices are those on it
    facets = [[v for v in verts if _dot(w, v) == c * q] for w, c in zip(ws, cs)]
    # x = V / den for a vertex numerator V; x0 has numerator 2q·Y
    den = q * h * D
    center = tuple(2 * q * y for y in Y)
    volume = Fraction(_volume(facets, verts, center, n), factorial(n) * den ** n)
    mirrored = {tuple(2 * c - x for c, x in zip(center, v)) for v in verts}
    symmetric = mirrored == set(verts)
    covol = covolume(L)
    if volume != covol or not symmetric:
        raise ConstructionFailed(
            "Dirichlet cell fails its re-check",
            {"volume": volume, "covolume": covol, "symmetric": symmetric})
    return ConvexCell(
        halfspaces=tuple((tuple(Fraction(x, D) for x in w), Fraction(c, h * D * D))
                         for w, c in zip(ws, cs)),
        vertices=tuple(tuple(Fraction(x, den) for x in v) for v in verts),
        volume=volume,
    )
