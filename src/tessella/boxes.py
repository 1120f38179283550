"""Half-open box regions in a rational coordinate frame.

A region is a finite disjoint union of boxes prod [a_i, b_i) whose
corners are given in the coordinates of an invertible rational frame
matrix (columns are the frame vectors), held with its integer form
(`linalg.IntBasis`). The class is closed under the one operation
everything else reduces to: cutting boxes along lattice hyperplanes and
translating the pieces, which makes tiling and packing checks against
any rational lattice exact. The half-open convention turns "up to
measure zero" statements into literal partitions.

The hot loops run on integer grids. Scaling one axis by a positive
integer keeps the order of its coordinates, so a region's boxes are
checked for overlap on the lcm of each axis's denominators, and
`reduce_mod` cuts, translates and counts the cover in Python ints on a
grid fine enough for the box corners and the lattice at once. Results
go back to Fractions only at the end, so every value stays exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence

from .errors import ConstructionFailed, InvalidInput
from .linalg import IntBasis, Mat, Vec, frac, hnf, mat, mat_mul, mat_vec

Box = tuple[tuple[Fraction, Fraction], ...]


def make_box(lo: Sequence, hi: Sequence) -> Box:
    lo = tuple(frac(x) for x in lo)
    hi = tuple(frac(x) for x in hi)
    if len(lo) != len(hi):
        raise InvalidInput("box corner dimensions differ")
    if any(a >= b for a, b in zip(lo, hi)):
        raise InvalidInput("box needs lo < hi on every axis")
    return tuple(zip(lo, hi))


def box_volume(b: Box) -> Fraction:
    v = Fraction(1)
    for lo, hi in b:
        v *= hi - lo
    return v


def boxes_overlap(b1: Box, b2: Box) -> bool:
    return all(lo1 < hi2 and lo2 < hi1 for (lo1, hi1), (lo2, hi2) in zip(b1, b2))


def box_center(b: Box) -> Vec:
    return tuple((lo + hi) / 2 for lo, hi in b)


@dataclass(frozen=True)
class FrameRegion:
    """Disjoint half-open boxes in the coordinates of an invertible frame."""

    frame: Mat
    boxes: tuple[Box, ...]
    form: IntBasis = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "frame", mat(self.frame))
        n = len(self.frame)
        if any(len(row) != n for row in self.frame):
            raise InvalidInput("frame matrix must be square")
        object.__setattr__(self, "form", IntBasis.of(self.frame))
        if self.form is None:
            raise InvalidInput("frame matrix must be invertible")
        boxes = tuple(
            make_box([x[0] for x in b], [x[1] for x in b]) for b in self.boxes
        )
        if any(len(b) != n for b in boxes):
            raise InvalidInput("box dimension does not match the frame")
        pair = _first_overlap(boxes, n)
        if pair is not None:
            raise InvalidInput(f"boxes {pair[0]} and {pair[1]} overlap")
        object.__setattr__(self, "boxes", boxes)

    @classmethod
    def from_corners(cls, frame, corners: Iterable[tuple[Sequence, Sequence]]) -> "FrameRegion":
        return cls(mat(frame), tuple(make_box(lo, hi) for lo, hi in corners))

    @property
    def dim(self) -> int:
        return len(self.frame)

    @property
    def measure(self) -> Fraction:
        return abs(self.form.det) * sum((box_volume(b) for b in self.boxes), Fraction(0))

    def to_ambient(self, coords: Sequence) -> Vec:
        return mat_vec(self.frame, tuple(frac(c) for c in coords))

    def contains(self, point: Sequence) -> bool:
        coords = mat_vec(self.form.inverse(), tuple(frac(x) for x in point))
        return any(
            all(lo <= c < hi for c, (lo, hi) in zip(coords, b)) for b in self.boxes
        )


def _to_grid(boxes: Sequence[Box], factors: Sequence[int]) -> list[tuple]:
    """The boxes with axis i multiplied by factors[i], as integer corners;
    each factor must be a multiple of the denominators on its axis."""
    return [
        tuple((lo.numerator * (f // lo.denominator), hi.numerator * (f // hi.denominator))
              for (lo, hi), f in zip(b, factors))
        for b in boxes
    ]


def _axis_lcms(boxes: Sequence[Box], n: int) -> list[int]:
    """Per axis, the lcm of the denominators of every box corner."""
    return [lcm(*{x.denominator for b in boxes for x in b[i]}) for i in range(n)]


def _first_overlap(boxes: Sequence[Box], n: int) -> Optional[tuple[int, int]]:
    """The least pair (i, j), i < j, of overlapping boxes, or None.

    On the integer grid of `_axis_lcms`, a group of boxes sorted by their
    low end on one axis splits into runs whose intervals chain-overlap;
    each run is split again on the next axis, cycling, until a run has
    come through every axis in one piece. Only pairs inside such a run
    are compared. Two overlapping boxes overlap on every axis, so they
    share a run at every step and the check stays exact.
    """
    if len(boxes) < 2:
        return None
    grid = _to_grid(boxes, _axis_lcms(boxes, n))
    best = None
    groups = [(list(range(len(boxes))), 0, 0)]
    while groups:
        group, axis, whole = groups.pop()
        if whole == n:
            for i, j in combinations(sorted(group), 2):
                if all(a < d and c < b for (a, b), (c, d) in zip(grid[i], grid[j])):
                    if best is None or (i, j) < best:
                        best = (i, j)
                    break
            continue
        group.sort(key=lambda k: grid[k][axis][0])
        runs = [[group[0]]]
        reach = grid[group[0]][axis][1]
        for k in group[1:]:
            lo, hi = grid[k][axis]
            if lo < reach:
                runs[-1].append(k)
                reach = max(reach, hi)
            else:
                runs.append([k])
                reach = hi
        nxt = (axis + 1) % n
        if len(runs) == 1:
            groups.append((group, nxt, whole + 1))
        else:
            groups.extend((run, nxt, 1) for run in runs if len(run) > 1)
    return best


def compressed_cover(pieces: Sequence[tuple[Box, object]], bounds: Box):
    """Coordinate-compressed arrangement of weighted boxes inside bounds.

    Yields (cell, total weight) pairs whose cells partition bounds; the
    weight of a cell is the sum of the weights of the pieces covering it
    (0 where nothing does). Weights may be integers or Fractions, and so
    may the coordinates: `reduce_mod` passes integer grid corners, which
    keeps every comparison and sum here in ints. Cost is O(cells) via an
    n-dimensional difference array, independent of how many pieces
    overlap each cell.
    """
    n = len(bounds)
    cuts = []
    for j in range(n):
        vals = {bounds[j][0], bounds[j][1]}
        for bx, _ in pieces:
            vals.add(bx[j][0])
            vals.add(bx[j][1])
        cuts.append(sorted(vals))
    dims = [len(c) - 1 for c in cuts]
    strides = [0] * n
    acc = 1
    for j in reversed(range(n)):
        strides[j] = acc
        acc *= dims[j] + 1
    shape = [d + 1 for d in dims]
    diff: list = [0] * acc
    for bx, weight in pieces:
        a = [bisect_left(cuts[j], bx[j][0]) for j in range(n)]
        b = [bisect_left(cuts[j], bx[j][1]) for j in range(n)]
        for corner in product(*[(0, 1)] * n):
            idx = sum((b[j] if corner[j] else a[j]) * strides[j] for j in range(n))
            diff[idx] = diff[idx] + (-weight if sum(corner) % 2 else weight)
    for j in range(n):
        step = strides[j]
        for o in range(acc // shape[j]):
            base = (o // step) * (shape[j] * step) + (o % step)
            run = 0
            for i in range(shape[j]):
                run = run + diff[base + i * step]
                diff[base + i * step] = run
    for cell_idx in product(*[range(d) for d in dims]):
        flat = sum(cell_idx[j] * strides[j] for j in range(n))
        cell = tuple(
            (cuts[j][cell_idx[j]], cuts[j][cell_idx[j] + 1]) for j in range(n)
        )
        yield cell, diff[flat]


@dataclass(frozen=True)
class ReducedRegion:
    """A region expressed modulo a lattice.

    frame: the refined frame in which the lattice is the column lattice
    of the integer HNF matrix; torus: the box prod [0, h_jj) in that
    frame, a fundamental parallelepiped of the lattice; levels[m]: the
    cells of the torus covered exactly m >= 1 times; uncovered: cells
    covered zero times; pieces: the reduced boxes each tagged with the
    integer lattice coordinates (in the HNF basis) of the translate it
    came from. cell_basis is that HNF basis in ambient coordinates.
    """

    frame: Mat
    torus: Box
    levels: dict[int, tuple[Box, ...]]
    uncovered: tuple[Box, ...]
    pieces: tuple[tuple[Box, tuple[int, ...]], ...]
    cell_basis: Mat

    def level_measure(self, m: int) -> Fraction:
        scale = abs(IntBasis.of(self.frame).det)
        return scale * sum((box_volume(b) for b in self.levels.get(m, ())), Fraction(0))

    @property
    def cell_measure(self) -> Fraction:
        return abs(IntBasis.of(self.frame).det) * box_volume(self.torus)


def reduce_mod(region: FrameRegion, basis: Mat) -> ReducedRegion:
    """Express a bounded region modulo the column lattice of basis.

    The basis must be n x n and nonsingular (InvalidInput otherwise).
    The region frame B is refined to B'' = B diag(1/d_i) with d_i the
    lcm of the denominators of row i of B^-1 basis, so the lattice
    becomes an integer column lattice; its HNF H is lower triangular,
    and coordinates are reduced in ascending order by cutting each box
    at multiples of H[j][j] and translating pieces by -m * column_j
    (which only moves coordinates >= j).

    The work runs on an integer grid: refined axis i is scaled by ds[i],
    the lcm of the denominators of the refined box corners on that axis,
    so the corners, the cuts at H[j][j] ds[j], the shifts m H[i][j] ds[i],
    the floors and the cover count are all ints. Only the result goes
    back to Fractions, with the same values in the same order. Total
    measure is conserved across multiplicity levels, checked on every
    call on the grid (ConstructionFailed). The check covers the grid
    computation, not the conversion back: every returned coordinate is
    the exact quotient Fraction(x, ds[i]) of its grid value, which the
    tests compare field by field with the all-Fraction reference.
    """
    B = region.frame
    n = region.dim
    if len(basis) != n or any(len(row) != n for row in basis):
        raise InvalidInput("lattice dimension does not match the region frame")
    # row i of B^-1 basis is N[i] / q, of denominator lcm q / gcd(q, N[i])
    N, q = region.form.solve(basis)
    gs = [gcd(q, *row) for row in N]
    scales = [q // g for g in gs]
    try:
        H = hnf([[x // g for x in row] for row, g in zip(N, gs)])
    except ValueError:  # a zero determinant leaves H without full rank
        raise InvalidInput("lattice basis must be nonsingular") from None
    refined = tuple(
        tuple(B[i][j] / scales[j] for j in range(n)) for i in range(n)
    )
    factors = [lcm(s, d) for s, d in zip(scales, _axis_lcms(region.boxes, n))]
    ds = [f // s for f, s in zip(factors, scales)]
    grid = _to_grid(region.boxes, factors)
    pieces = [(bx, (0,) * n) for bx in grid]
    for j in range(n):
        step = H[j][j] * ds[j]
        shifts = [(i, H[i][j] * ds[i]) for i in range(j + 1, n) if H[i][j]]
        nxt = []
        for bx, w in pieces:
            lo, hi = bx[j]
            m = lo // step
            base = m * step
            while base < hi:
                nb = list(bx)
                nb[j] = (max(lo, base) - base, min(hi, base + step) - base)
                for i, h in shifts:
                    nb[i] = (nb[i][0] - m * h, nb[i][1] - m * h)
                nxt.append((tuple(nb), w[:j] + (w[j] + m,) + w[j + 1:]))
                m += 1
                base += step
        pieces = nxt
    levels: dict[int, list] = {}
    uncovered: list = []
    covered = 0
    for cell, count in compressed_cover(
            [(bx, 1) for bx, _ in pieces],
            tuple((0, H[j][j] * ds[j]) for j in range(n))):
        if count == 0:
            uncovered.append(cell)
        else:
            levels.setdefault(count, []).append(cell)
            covered += count * prod(hi - lo for lo, hi in cell)

    def to_frac(bx) -> Box:
        return tuple((Fraction(lo, ds[i]), Fraction(hi, ds[i]))
                     for i, (lo, hi) in enumerate(bx))

    reduced = ReducedRegion(
        frame=refined,
        torus=tuple((Fraction(0), Fraction(H[j][j])) for j in range(n)),
        levels={m: tuple(map(to_frac, cells)) for m, cells in sorted(levels.items())},
        uncovered=tuple(map(to_frac, uncovered)),
        pieces=tuple((to_frac(bx), w) for bx, w in pieces),
        cell_basis=mat_mul(refined, tuple(tuple(map(Fraction, row)) for row in H)),
    )
    if covered != sum(prod(hi - lo for lo, hi in bx) for bx in grid):
        total = sum((m * reduced.level_measure(m) for m in reduced.levels), Fraction(0))
        raise ConstructionFailed("measure not conserved during reduction",
                                 {"measure": total, "expected": region.measure})
    return reduced
