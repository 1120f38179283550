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
integer keeps the order of its coordinates, so a region is built
grid-first: it parses each corner to a reduced pair of ints (a "p/q"
string is split without a Fraction), holds its boxes on the lcm of each
axis's denominators and checks them for overlap there. Its Fraction
`boxes` are a view built on first read. `reduce_mod` rescales that grid
to one fine enough for the lattice as well, then cuts, translates and
counts the cover in Python ints. The reduction keeps the grid: verdicts
and boundary counts read its ints, and its Fraction coordinates are
built only when first read, each the exact quotient of a grid value.
`lattices.region_reduce_mod` keeps one reduction per region and
lattice on the region, so the tiling and packing verdicts on one region
reduce it once. Both the pieces and the cover cells of a reduction are
budgeted before the work (TooLarge).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Optional, Sequence

from .errors import ConstructionFailed, InvalidInput, TooLarge
from .linalg import RATIO, IntBasis, Mat, Vec, frac, hnf, mat, mat_mul, mat_vec

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


def ratio(x) -> tuple[int, int]:
    """frac(x) as a reduced (numerator, positive denominator) pair of ints.

    A string matching `linalg.RATIO` with a nonzero q is split into ints
    directly; every other value goes through `frac`, so the values
    accepted and the errors raised are exactly those of `frac`."""
    if isinstance(x, str):
        m = RATIO.fullmatch(x)
        if m is not None:
            p, q = m.groups()
            if q is None:
                return int(p), 1
            p, q = int(p), int(q)
            if q:
                g = gcd(p, q)
                return p // g, q // g
    f = frac(x)
    return f.numerator, f.denominator


@dataclass(frozen=True, init=False, repr=False)
class FrameRegion:
    """Disjoint half-open boxes in the coordinates of an invertible frame.

    Built grid-first: every corner is read as a reduced int pair
    (`ratio`), `lcms[i]` is the lcm of the denominators on axis i, and
    `grid` the boxes with axis i multiplied by lcms[i], as integer
    corners. `boxes`, the same boxes in Fractions, is built on first read.
    Equality and hashing read (frame, lcms, grid): the lcms are canonical,
    so these determine the boxes. `lattices.region_reduce_mod` keeps the
    last reduction of the region in `_reduction`, with its basis."""

    frame: Mat
    lcms: tuple[int, ...]
    grid: tuple[tuple, ...]
    form: IntBasis = field(compare=False)
    _reduction = (None, None)

    def __init__(self, frame, boxes):
        # the whole build is __post_init__, the one entry point a profiler
        # hooks by name (perfbench/tracing.py)
        self.__post_init__(frame, boxes)

    def __post_init__(self, frame, boxes):
        frame = mat(frame)
        n = len(frame)
        if any(len(row) != n for row in frame):
            raise InvalidInput("frame matrix must be square")
        form = IntBasis.of(frame)
        if form is None:
            raise InvalidInput("frame matrix must be invertible")
        parsed = []
        for b in boxes:
            # the checks and their order are make_box's
            lo = [x[0] for x in b]
            hi = [x[1] for x in b]
            lo = list(map(ratio, lo))
            hi = list(map(ratio, hi))
            if len(lo) != len(hi):
                raise InvalidInput("box corner dimensions differ")
            if any(p * s >= r * q for (p, q), (r, s) in zip(lo, hi)):
                raise InvalidInput("box needs lo < hi on every axis")
            parsed.append(tuple(zip(lo, hi)))
        if any(len(b) != n for b in parsed):
            raise InvalidInput("box dimension does not match the frame")
        lcms = tuple(lcm(*{q for b in parsed for _, q in b[i]}) for i in range(n))
        grid = tuple(
            tuple((p * (f // q), r * (f // s)) for ((p, q), (r, s)), f in zip(b, lcms))
            for b in parsed
        )
        pair = _first_overlap(grid, n)
        if pair is not None:
            raise InvalidInput(f"boxes {pair[0]} and {pair[1]} overlap")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "lcms", lcms)
        object.__setattr__(self, "grid", grid)

    @classmethod
    def from_corners(cls, frame, corners: Iterable[tuple[Sequence, Sequence]]) -> "FrameRegion":
        return cls(mat(frame), tuple(make_box(lo, hi) for lo, hi in corners))

    def __repr__(self) -> str:
        return f"FrameRegion(frame={self.frame!r}, boxes={self.boxes!r})"

    @cached_property
    def boxes(self) -> tuple[Box, ...]:
        return tuple(tuple((Fraction(lo, f), Fraction(hi, f)) for (lo, hi), f in zip(b, self.lcms))
                     for b in self.grid)

    @property
    def dim(self) -> int:
        return len(self.frame)

    @property
    def measure(self) -> Fraction:
        return abs(self.form.det) * Fraction(sum(map(_grid_volume, self.grid)), prod(self.lcms))

    def to_ambient(self, coords: Sequence) -> Vec:
        return mat_vec(self.frame, tuple(frac(c) for c in coords))

    def contains(self, point: Sequence) -> bool:
        coords = mat_vec(self.form.inverse(), tuple(frac(x) for x in point))
        return any(
            all(lo <= c < hi for c, (lo, hi) in zip(coords, b)) for b in self.boxes
        )


def _first_overlap(grid: Sequence[tuple], n: int) -> Optional[tuple[int, int]]:
    """The least pair (i, j), i < j, of overlapping boxes, or None.

    On the integer grid of a region, a group of boxes sorted by their
    low end on one axis splits into runs whose intervals chain-overlap;
    each run is split again on the next axis, cycling, until a run has
    come through every axis in one piece. Only boxes inside such a run
    are compared (`_least_overlap`). Two overlapping boxes overlap on
    every axis, so they share a run at every step and the check stays
    exact.
    """
    if len(grid) < 2:
        return None
    best = None
    groups = [(list(range(len(grid))), 0, 0)]
    while groups:
        group, axis, whole = groups.pop()
        if whole == n:
            pair = _least_overlap(grid, group, axis)
            if pair is not None and (best is None or pair < best):
                best = pair
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


def _least_overlap(grid: Sequence[tuple], group: list[int], axis: int) -> Optional[tuple[int, int]]:
    """The least overlapping pair of a group, by a sweep along one axis.

    Boxes enter in the order of their low ends on the axis, and each is
    compared only with the boxes still open there, those whose high end
    lies beyond its low end. Of two overlapping boxes, the earlier is
    still open when the later enters, so every overlapping pair is met.
    """
    best = None
    open_ = []
    for k in sorted(group, key=lambda k: grid[k][axis][0]):
        bk = grid[k]
        start = bk[axis][0]
        open_ = [i for i in open_ if grid[i][axis][1] > start]
        for i in open_:
            if all(a < d and c < b for (a, b), (c, d) in zip(grid[i], bk)):
                pair = (i, k) if i < k else (k, i)
                if best is None or pair < best:
                    best = pair
        open_.append(k)
    return best


# Budgets of one reduction, each checked before the work it bounds: five
# times the largest request of the tests, the demos and one traced pass of
# each benchmark workload at seeds 1 and 9001 (7700 pieces and 7700 cover
# cells, a row of `lattices.MAX_CELLS` unit cells, the most a lattice
# construction verifies). At the budgets one reduction took 0.3 s (38 500
# pieces of one long box) and 0.05 s (38 025 cover cells) on one 2-vCPU
# host.
MAX_PIECES = 38_500
MAX_COVER_CELLS = 38_500


def compressed_cover(pieces: Sequence[tuple[Box, object]], bounds: Box):
    """Coordinate-compressed arrangement of weighted boxes inside bounds.

    Yields (cell, total weight) pairs whose cells partition bounds, in
    row-major order of the per-axis cuts; the weight of a cell is the sum
    of the weights of the pieces covering it (0 where nothing does).
    Weights may be integers or Fractions, and so may the coordinates:
    `reduce_mod` passes integer grid corners, which keeps every comparison
    and sum here in ints. Cost is O(cells) via an n-dimensional difference
    array, independent of how many pieces overlap each cell. More than
    MAX_COVER_CELLS cells (the product over axes of the number of
    intervals between cuts) raise TooLarge before the difference array is
    built.
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
    if prod(dims) > MAX_COVER_CELLS:
        raise TooLarge(f"{prod(dims)} cover cells exceed the budget of {MAX_COVER_CELLS}")
    acc = prod(map(len, cuts))
    strides = [0] * n
    stride = 1
    for j in reversed(range(n)):
        strides[j] = stride
        stride *= dims[j] + 1
    diff: list = [0] * acc
    for bx, weight in pieces:
        # the 2^n corners of the piece: +weight at even, -weight at odd ones
        corners = [(0, weight)]
        for (lo, hi), cut, s in zip(bx, cuts, strides):
            a, b = bisect_left(cut, lo) * s, bisect_left(cut, hi) * s
            corners = [c for i, w in corners for c in ((i + a, w), (i + b, -w))]
        for i, w in corners:
            diff[i] = diff[i] + w
    # prefix sums along each axis; rows of one axis are `step` apart
    for j in range(n):
        step, size = strides[j], (dims[j] + 1) * strides[j]
        for start in range(0, acc, size):
            if step == 1:
                diff[start:start + size] = accumulate(diff[start:start + size])
                continue
            for lo in range(start + step, start + size, step):
                diff[lo:lo + step] = map(add, diff[lo - step:lo], diff[lo:lo + step])
    # the flat index of every cell, in the order `product` yields the cells
    flats = [0]
    for j in range(n):
        flats = [f + i * strides[j] for f in flats for i in range(dims[j])]
    yield from zip(product(*[list(zip(c, c[1:])) for c in cuts]),
                   map(diff.__getitem__, flats))


def _grid_volume(bx) -> int:
    return prod(hi - lo for lo, hi in bx)


@dataclass(frozen=True)
class ReducedRegion:
    """A region expressed modulo a lattice, held on its integer grid.

    frame: the refined frame in which the lattice is the column lattice
    of the integer HNF matrix H. Grid axis i is refined axis i scaled by
    the positive integer ds[i], so every box below has int corners and
    the torus prod [0, H[j][j]), a fundamental parallelepiped of the
    lattice, is `grid_torus`. grid_levels[m]: the grid cells of the
    torus covered exactly m >= 1 times, in increasing m; grid_uncovered:
    cells covered zero times; grid_pieces: the reduced grid boxes each
    tagged with the integer lattice coordinates (in the HNF basis) of the
    translate it came from. unit: the ambient measure of one grid cell.

    `torus`, `levels`, `uncovered`, `pieces` and `cell_basis` (the HNF
    basis in ambient coordinates) are the same in Fractions, refined-frame
    coordinates, built on first read: each end x on axis i becomes the
    exact quotient Fraction(x, ds[i]).
    """

    frame: Mat
    H: tuple[tuple[int, ...], ...]
    ds: tuple[int, ...]
    grid_levels: dict[int, tuple[tuple, ...]]
    grid_uncovered: tuple[tuple, ...]
    grid_pieces: tuple[tuple[tuple, tuple[int, ...]], ...]
    unit: Fraction

    def as_fractions(self, bx) -> Box:
        """A grid box in refined-frame coordinates."""
        return tuple((Fraction(lo, d), Fraction(hi, d)) for (lo, hi), d in zip(bx, self.ds))

    @property
    def grid_torus(self) -> tuple:
        return tuple((0, self.H[j][j] * d) for j, d in enumerate(self.ds))

    @cached_property
    def torus(self) -> Box:
        return tuple((Fraction(0), Fraction(row[j])) for j, row in enumerate(self.H))

    @cached_property
    def levels(self) -> dict[int, tuple[Box, ...]]:
        return {m: tuple(map(self.as_fractions, cells)) for m, cells in self.grid_levels.items()}

    @cached_property
    def uncovered(self) -> tuple[Box, ...]:
        return tuple(map(self.as_fractions, self.grid_uncovered))

    @cached_property
    def pieces(self) -> tuple[tuple[Box, tuple[int, ...]], ...]:
        return tuple((self.as_fractions(bx), w) for bx, w in self.grid_pieces)

    @cached_property
    def cell_basis(self) -> Mat:
        return mat_mul(self.frame, tuple(tuple(map(Fraction, row)) for row in self.H))

    def level_measure(self, m: int) -> Fraction:
        return self.unit * sum(map(_grid_volume, self.grid_levels.get(m, ())))

    @property
    def cell_measure(self) -> Fraction:
        return self.unit * _grid_volume(self.grid_torus)


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
    the floors and the cover count are all ints, and the result keeps
    them (`ReducedRegion`). Before cutting, the pieces are bounded by the
    sum over boxes of the product over axes of min(l, (l - 1) // step + 2),
    l the grid length of the box on that axis: cut at multiples of step,
    it meets at most (l - 1) // step + 2 of them, and every piece has int
    ends, so there are at most l. More than MAX_PIECES raise TooLarge; the
    cover is budgeted in `compressed_cover`. Total measure is conserved
    across multiplicity levels, checked on every call on the grid
    (ConstructionFailed).
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
    factors = [lcm(s, d) for s, d in zip(scales, region.lcms)]
    ds = [f // s for f, s in zip(factors, scales)]
    steps = [H[j][j] * ds[j] for j in range(n)]
    ks = [f // d for f, d in zip(factors, region.lcms)]
    grid = [tuple((lo * k, hi * k) for (lo, hi), k in zip(bx, ks)) for bx in region.grid]
    bound = sum(prod(min(hi - lo, (hi - lo - 1) // s + 2) for (lo, hi), s in zip(bx, steps))
                for bx in grid)
    if bound > MAX_PIECES:
        raise TooLarge(f"up to {bound} pieces exceed the budget of {MAX_PIECES}")
    pieces = [(bx, (0,) * n) for bx in grid]
    for j in range(n):
        step = steps[j]
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
    for cell, count in compressed_cover([(bx, 1) for bx, _ in pieces],
                                        tuple((0, s) for s in steps)):
        if count == 0:
            uncovered.append(cell)
        else:
            levels.setdefault(count, []).append(cell)
            covered += count * _grid_volume(cell)
    reduced = ReducedRegion(
        frame=tuple(tuple(B[i][j] / scales[j] for j in range(n)) for i in range(n)),
        H=tuple(map(tuple, H)),
        ds=tuple(ds),
        grid_levels={m: tuple(cells) for m, cells in sorted(levels.items())},
        grid_uncovered=tuple(uncovered),
        grid_pieces=tuple(pieces),
        unit=abs(region.form.det) / prod(factors),
    )
    if covered != sum(map(_grid_volume, grid)):
        total = sum((m * reduced.level_measure(m) for m in reduced.grid_levels), Fraction(0))
        raise ConstructionFailed("measure not conserved during reduction",
                                 {"measure": total, "expected": region.measure})
    return reduced
