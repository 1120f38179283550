"""Plain-data helpers shared by the workload generators.

Generators emit only lists, ints and "p/q" strings, and compute every
expected answer with their own Fraction arithmetic, never by calling the
library under test.
"""

from __future__ import annotations

from fractions import Fraction


def q(x) -> str:
    """Serialize a rational as the "p/q" string the library accepts."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def qmat(m) -> list[list[str]]:
    return [[q(x) for x in row] for row in m]


def fmat(m) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def det(m) -> Fraction:
    """Laplace expansion; the generators only use dimensions 2 and 3."""
    m = fmat(m)
    if len(m) == 1:
        return m[0][0]
    return sum(((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                for j in range(len(m))), Fraction(0))


def solve(m, v):
    """Cramer's rule: the x with m x = v."""
    d = det(m)
    out = []
    for j in range(len(m)):
        mj = [row[:j] + [v[i]] + row[j + 1:] for i, row in enumerate(fmat(m))]
        out.append(det(mj) / d)
    return out


def diag(entries):
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def unimodular(rng, n: int, steps: int = 4):
    """Random integer matrix of determinant +-1 from elementary moves."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((-2, -1, 1, 2))
        for j in range(n):
            u[a][j] += s * u[b][j]
    if rng.random() < 0.5:
        u[0] = [-x for x in u[0]]
    return fmat(u)


def random_frame(rng, n: int):
    """Nonsingular rational frame: unimodular times a small diagonal."""
    scales = [rng.choice((1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)))
              for _ in range(n)]
    return mat_mul(unimodular(rng, n, 2), diag(scales))


def in_lattice(basis, v) -> bool:
    return all(x.denominator == 1 for x in solve(basis, v))


def cell_offsets(boxes) -> list[tuple[int, ...]] | None:
    """Integer offsets of unit boxes, or None when some box is not a unit
    box at integer corners."""
    offsets = []
    for box in boxes:
        lo = tuple(b[0] for b in box)
        if any(x.denominator != 1 for x in lo) or any(hi - lo_ != 1 for lo_, hi in box):
            return None
        offsets.append(tuple(int(x) for x in lo))
    return offsets


def distinct_mod(frame, offsets, basis) -> bool:
    """Are the cells frame*(o + [0,1)^n) pairwise inequivalent modulo the
    lattice spanned by basis? Decided on the cell corners' coordinates in
    the lattice basis, taken modulo 1, so the verdict does not depend on
    the library's reduction code."""
    points = [[sum((frame[i][j] * o[j] for j in range(len(o))), Fraction(0))
               for i in range(len(o))] for o in offsets]
    inv_cols = [solve(basis, [Fraction(int(i == j)) for i in range(len(basis))])
                for j in range(len(basis))]
    # two cells coincide modulo the lattice exactly when the coordinates
    # of their corners differ by integers
    keys = set()
    for p in points:
        coords = tuple(sum((inv_cols[j][i] * p[j] for j in range(len(p))), Fraction(0)) % 1
                       for i in range(len(p)))
        if coords in keys:
            return False
        keys.add(coords)
    return True


def _sublattice(basis, frame) -> bool:
    """Do the columns of basis lie in the lattice spanned by frame?"""
    return all(in_lattice(frame, [row[j] for row in basis]) for j in range(len(basis)))


def unit_cells_tile(frame, boxes, basis) -> bool:
    """Exact tiling check for a union of unit cells of a frame lattice
    that contains the lattice: the cells must be a transversal of the
    frame lattice modulo the lattice (distinct classes, right count)."""
    frame, basis = fmat(frame), fmat(basis)
    offsets = cell_offsets(boxes)
    return (offsets is not None and _sublattice(basis, frame)
            and len(offsets) * abs(det(frame)) == abs(det(basis))
            and distinct_mod(frame, offsets, basis))


def unit_cells_pack(frame, boxes, basis) -> bool:
    """Exact packing check for unit cells of a frame lattice that contains
    the lattice: the cells must lie in distinct classes."""
    frame, basis = fmat(frame), fmat(basis)
    offsets = cell_offsets(boxes)
    return (offsets is not None and _sublattice(basis, frame)
            and distinct_mod(frame, offsets, basis))


def heis_matrix(g):
    """Unitriangular model of the Heisenberg group: (x1, x2, c) maps to
    [[1, x1, (c + x1 x2)/2], [0, 1, x2], [0, 0, 1]]."""
    x1, x2, c = (Fraction(v) for v in g)
    return [[Fraction(1), x1, (c + x1 * x2) / 2],
            [Fraction(0), Fraction(1), x2],
            [Fraction(0), Fraction(0), Fraction(1)]]


def heis_from_matrix(m):
    x1, x2, t = m[0][1], m[1][2], m[0][2]
    return (x1, x2, 2 * t - x1 * x2)


def heis_product(g, h):
    return heis_from_matrix(mat_mul(heis_matrix(g), heis_matrix(h)))


def ball_sizes(n_max: int) -> list[int]:
    """Word-metric ball sizes of the integer Heisenberg points, by
    breadth-first search in the unitriangular model: a point is the
    integer matrix entries (x1, x2, t) and the generators multiply on the
    right by [[1, +-1, 0], [0, 1, 0], [0, 0, 1]] or [[1, 0, 0], [0, 1, +-1],
    [0, 0, 1]]."""
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    sizes = [1]
    for _ in range(n_max):
        nxt = []
        for x1, x2, t in frontier:
            for p in ((x1 + 1, x2, t), (x1 - 1, x2, t),
                      (x1, x2 + 1, t + x1), (x1, x2 - 1, t - x1)):
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def cover_counts(perms, atoms, n: int) -> list[int]:
    """How often each atom is covered by the translates of a set."""
    counts = [0] * n
    for p in perms:
        for x in atoms:
            counts[p[x]] += 1
    return counts


def is_domain(perms, atoms, n: int) -> bool:
    return cover_counts(perms, atoms, n) == [1] * n


def packs(perms, family, n: int) -> bool:
    return max(cover_counts(perms, [x for f in family for x in f], n)) <= 1


def heis_lattice(rng, shear: int = 1):
    """Planar data diag(det/s, s) times a shear, rows possibly swapped,
    with a half-integer determinant. Sheared cells have larger bounding
    boxes, so each Monte Carlo sample tests more translates."""
    d = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)))
    s = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2)))
    a = mat_mul(diag([d / s, s]), [[1, shear * rng.choice((-1, 1))], [0, 1]])
    return a[::-1] if rng.random() < 0.5 else a


def heis_reduction(rng, a, side: str):
    """A point g = gamma * omega (left) or omega * gamma (right) with
    gamma = Y1^n1 Y2^n2 X3^n3 of the lattice with planar data a and omega
    in its half-open cell. Returns (g, n, omega), rationals as strings."""
    d = det(a)
    n = [rng.randint(-9, 9) for _ in range(3)]
    gamma = (a[0][0] * n[0] + a[0][1] * n[1], a[1][0] * n[0] + a[1][1] * n[1],
             n[0] * n[1] * d + n[2])
    t = [Fraction(rng.getrandbits(20), 1 << 20) for _ in range(3)]
    omega = (a[0][0] * t[0] + a[0][1] * t[1], a[1][0] * t[0] + a[1][1] * t[1], t[2])
    g = heis_product(gamma, omega) if side == "left" else heis_product(omega, gamma)
    return [q(x) for x in g], n, [q(x) for x in omega]


def _cuts(rng, parts: int) -> list[Fraction]:
    """0, then parts - 1 distinct rational cut points inside (0, 1), then 1."""
    cuts = set()
    while len(cuts) < parts - 1:
        cuts.add(Fraction(rng.randint(1, 8 * parts - 1), 8 * parts))
    return [Fraction(0)] + sorted(cuts) + [Fraction(1)]


def _grid(dim: int, parts: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(i,) for i in range(parts)]
    return [(i,) + rest for i in range(parts) for rest in _grid(dim - 1, parts)]


def tiling_region(rng, dim: int, parts: int):
    """Sub-boxes of a partition of the unit cube of a lattice frame, each
    moved by its own lattice vector: a tiling by construction. Variants
    drop one box (a gap) or add a far copy of one (a double cover).
    Returns ({basis, frame, boxes}, {tiling, packing, multiplicity})."""
    basis = random_frame(rng, dim)
    frame = mat_mul(basis, unimodular(rng, dim, 2))
    cuts = [_cuts(rng, parts) for _ in range(dim)]
    boxes = []
    for idx in _grid(dim, parts):
        shift = [rng.randint(-3, 3) for _ in range(dim)]
        boxes.append([[cuts[j][idx[j]] + shift[j], cuts[j][idx[j] + 1] + shift[j]]
                      for j in range(dim)])
    variant = rng.choice(("tiling", "tiling", "gap", "double"))
    expected = {"tiling": True, "packing": True, "multiplicity": None}
    if variant == "gap":
        boxes.pop(rng.randrange(len(boxes)))
        expected = {"tiling": False, "packing": True, "multiplicity": 0}
    elif variant == "double":
        copy = boxes[rng.randrange(len(boxes))]
        far = 10 - int(copy[0][0] // 1)  # into the unit cube at 10 on axis 0
        boxes.append([[copy[0][0] + far, copy[0][1] + far]] + copy[1:])
        expected = {"tiling": False, "packing": False, "multiplicity": 2}
    data = {"basis": qmat(basis), "frame": qmat(frame),
            "boxes": [[[q(lo), q(hi)] for lo, hi in b] for b in boxes]}
    return data, expected
