"""Exact rational vectors and matrices.

Every coordinate, measure or weight is a Fraction, matrices are tuples of
row tuples and vectors tuples; all operations are pure. Determinants,
inverses and lattice coordinates are read from a basis's integer form,
`IntBasis`, built by one fraction-free kernel, `det_adj`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


# An ASCII "p" or "p/q" with an optional minus sign: the strings `frac`
# (and `boxes.ratio`) split into ints without Fraction's string parser
RATIO = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)


def frac(x) -> Fraction:
    """Coerce an int, string ("p/q" or "p"), or Fraction to Fraction.

    A string matching RATIO with a nonzero q becomes Fraction(p, q) from
    its ints; every other string goes to Fraction(x.strip()), which
    accepts the same values and raises the same errors."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError("boolean is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        m = RATIO.fullmatch(x)
        if m is not None:
            p, q = m.groups()
            if q is None:
                return Fraction(int(p))
            q = int(q)
            if q:
                return Fraction(int(p), q)
        return Fraction(x.strip())
    raise ValueError(f"not an exact rational: {x!r}")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, v: Vec) -> Vec:
    if len(a[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c: Fraction, v: Vec) -> Vec:
    return tuple(c * x for x in v)


def dot(u: Vec, v: Vec) -> Fraction:
    return sum(x * y for x, y in zip(u, v))


def det(a: Mat) -> Fraction:
    """Determinant, exact for any rational entries, 0 when a is singular."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    form = IntBasis.of(a)
    return Fraction(0) if form is None else form.det


def mat_inv(a: Mat) -> Mat:
    """Inverse from `IntBasis`; raises ValueError on a singular matrix."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of a non-square matrix")
    form = IntBasis.of(a)
    if form is None:
        raise ValueError("singular matrix")
    return form.inverse()


def integer_form(a) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d·a), d the lcm of a's denominators: the least d > 0 with d·a integral."""
    m = mat(a)
    d = denominator_lcm(x for row in m for x in row)
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m)


def det_adj(m) -> tuple[int, Optional[tuple[tuple[int, ...], ...]]]:
    """(det m, adj m) of a square integer matrix, (0, None) if singular, by
    fraction-free Gauss-Jordan on [m | I] (Bareiss, Math. Comp. 1968): every
    entry stays a minor, so each division by the last pivot p is exact. The
    end is [q I | q m'^-1], m' = m with rows swapped s = ±1 times, q = det m'."""
    n = len(m)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    sign = p = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return 0, None
        if piv != c:
            rows[c], rows[piv], sign = rows[piv], rows[c], -sign
        top, q = rows[c], rows[c][c]
        for r in range(n):
            f = rows[r][c]
            if r != c:
                rows[r] = [(q * x - f * y) // p for x, y in zip(rows[r], top)]
        p = q
    return sign * p, tuple(tuple(sign * x for x in row[n:]) for row in rows)


@dataclass(frozen=True)
class IntBasis:
    """Integer form of a nonsingular square rational matrix B: `rows` is
    `scale`·B with `scale` the lcm of B's denominators, `det_int` = det rows
    and `adj_int` = adj rows, so B^-1 = scale·adj_int / det_int."""

    scale: int
    rows: tuple[tuple[int, ...], ...]
    det_int: int
    adj_int: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, a) -> Optional["IntBasis"]:
        """The form of the square matrix a, or None when a is singular."""
        scale, rows = integer_form(a)
        d, adj = det_adj(rows)
        return None if adj is None else cls(scale, rows, d, adj)

    @property
    def det(self) -> Fraction:
        return Fraction(self.det_int, self.scale ** len(self.rows))

    def solve(self, M) -> tuple[list[list[int]], int]:
        """B^-1·M = scale·adj·(e·M) / (e·det), e·M integral, as integer
        numerators over one positive denominator."""
        e, M_int = integer_form(M)
        if len(M_int) != len(self.rows):
            raise ValueError("shape mismatch")
        q, cols = e * self.det_int, list(zip(*M_int))
        s = self.scale if q > 0 else -self.scale
        return [[s * sum(map(mul, row, col)) for col in cols] for row in self.adj_int], abs(q)

    def inverse(self) -> Mat:
        N, q = self.solve(identity(len(self.rows)))
        return tuple(tuple(Fraction(x, q) for x in row) for row in N)

    def coordinates(self, M) -> Optional[list[list[int]]]:
        """The integer matrix B^-1·M, or None when M is not in B's lattice."""
        N, q = self.solve(M)
        if any(x % q for row in N for x in row):
            return None
        return [[x // q for x in row] for row in N]


def integer_meet(H1, H2) -> list[list[int]]:
    """HNF of the meet of the column lattices L1, L2 of two nonsingular
    integer matrices, by duality: L* = adj(K)^T / det K, and D·(L1* + L2*)
    with D = lcm(det H1, det H2) has an integer HNF G; L1 ^ L2 = D·G^-T."""
    n = len(H1)
    (d1, a1), (d2, a2) = det_adj(H1), det_adj(H2)
    D = lcm(d1, d2)
    dg, ag = det_adj(hnf([[D // d1 * a1[j][i] for j in range(n)]
                          + [D // d2 * a2[j][i] for j in range(n)] for i in range(n)]))
    return hnf([[D * ag[j][i] // dg for j in range(n)] for i in range(n)])


def denominator_lcm(xs: Iterable[Fraction]) -> int:
    d = 1
    for x in xs:
        d = lcm(d, Fraction(x).denominator)
    return d


def hnf(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column-style Hermite normal form of an integer matrix.

    Input: n x m integer matrix of full row rank n (m >= n) whose columns
    generate a rank-n lattice in Z^n. Output: the n x n lower-triangular
    basis with positive diagonal and 0 <= H[r][j] < H[r][r] for j < r.
    Column operations only, so the column lattice is preserved.
    """
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    if any(len(r) != m for r in a):
        raise ValueError("ragged matrix")
    for row in range(n):
        col = row
        while True:
            nz = [j for j in range(col, m) if a[row][j] != 0]
            if not nz:
                raise ValueError("matrix does not have full row rank")
            if len(nz) == 1:
                piv = nz[0]
                break
            jmin = min(nz, key=lambda j: abs(a[row][j]))
            for j in nz:
                if j == jmin:
                    continue
                q = a[row][j] // a[row][jmin]
                if q:
                    for i in range(n):
                        a[i][j] -= q * a[i][jmin]
        if piv != col:
            for i in range(n):
                a[i][col], a[i][piv] = a[i][piv], a[i][col]
        if a[row][col] < 0:
            for i in range(n):
                a[i][col] = -a[i][col]
        for j in range(col):
            q = a[row][j] // a[row][col]
            if q:
                for i in range(n):
                    a[i][j] -= q * a[i][col]
    return [r[:n] for r in a]


def hnf_rational(columns: Sequence[Vec]) -> Mat:
    """Canonical basis of the lattice generated by rational column vectors.

    Scales by d from `integer_form` (the minimal d with d*L in Z^n, which
    is basis-independent), applies integer HNF, and scales back, so equal
    lattices yield identical output regardless of generators.
    """
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("ragged generators")
    d, rows = integer_form(transpose(columns))
    h = hnf(rows)
    return tuple(tuple(Fraction(h[i][j], d) for j in range(n)) for i in range(n))


def gram_schmidt(columns: Sequence[Vec]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Squared norms |b*_k|^2 of the Gram-Schmidt orthogonalization of the
    columns, and the coefficients mu[k][j] = <b_k, b*_j> / |b*_j|^2, j < k."""
    basis: list[Vec] = []
    norms: list[Fraction] = []
    mu: list[list[Fraction]] = []
    for c in columns:
        v = vec(c)
        row = []
        for b, bb in zip(basis, norms):
            m = dot(v, b) / bb
            row.append(m)
            v = vec_sub(v, vec_scale(m, b))
        basis.append(v)
        norms.append(dot(v, v))
        mu.append(row)
    return norms, mu


def floor_frac(x: Fraction) -> int:
    return Fraction(x).numerator // Fraction(x).denominator


def interval_image(M: Mat, lo: Sequence[Fraction], hi: Sequence[Fraction]) -> tuple[list, list]:
    """Per row i of M, the least and the greatest value of (M t)_i over
    the box lo <= t <= hi, by interval arithmetic."""
    ends = [[sorted((m * l, m * h)) for m, l, h in zip(row, lo, hi)] for row in M]
    return ([sum((e[0] for e in row), Fraction(0)) for row in ends],
            [sum((e[1] for e in row), Fraction(0)) for row in ends])


def integer_ranges(M: Mat, lo: Sequence[Fraction], hi: Sequence[Fraction]) -> list[range]:
    """Per row i of M, the integers of `interval_image`'s interval i.
    Every integer vector M t with t in the box lies in their product."""
    return [range(-floor_frac(-a), floor_frac(b) + 1) for a, b in zip(*interval_image(M, lo, hi))]
