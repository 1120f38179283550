"""Exact rational vectors and matrices.

Everything in the package that carries a coordinate, a measure, or a
weight is a Fraction. Matrices are tuples of row tuples; vectors are
tuples. All operations are pure and return new tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def frac(x) -> Fraction:
    """Coerce an int, string ("p/q" or "p"), or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError("boolean is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
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
    """Determinant by fraction Gaussian elimination with partial pivoting."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    m = [list(r) for r in a]
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return d


def mat_inv(a: Mat) -> Mat:
    """Inverse by Gauss-Jordan; raises ValueError on a singular matrix."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of a non-square matrix")
    m = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, r in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


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

    Scales by d = lcm of all denominators (the minimal d with d*L in Z^n,
    which is basis-independent), applies integer HNF, and scales back, so
    equal lattices yield identical output regardless of generators.
    """
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("ragged generators")
    d = denominator_lcm(x for c in columns for x in c)
    rows = [[int(c[i] * d) for c in columns] for i in range(n)]
    h = hnf(rows)
    return tuple(tuple(Fraction(h[i][j], d) for j in range(n)) for i in range(n))


def gram_schmidt_sq(columns: Sequence[Vec]) -> list[Fraction]:
    """Squared norms of the Gram-Schmidt orthogonalization of the columns."""
    basis: list[Vec] = []
    out: list[Fraction] = []
    for c in columns:
        v = vec(c)
        for b in basis:
            bb = dot(b, b)
            v = vec_sub(v, vec_scale(dot(v, b) / bb, b))
        basis.append(v)
        out.append(dot(v, v))
    return out


def floor_frac(x: Fraction) -> int:
    return Fraction(x).numerator // Fraction(x).denominator


def isqrt_floor(x: Fraction) -> int:
    """Largest integer k with k*k <= x (x >= 0)."""
    if x < 0:
        raise ValueError("negative radicand")
    k = isqrt(floor_frac(x))
    while (k + 1) * (k + 1) <= x:
        k += 1
    return k
