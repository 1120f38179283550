"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the
library code: sympy for normal forms and determinants, brute-force
enumeration where the library uses algebra, an upper-triangular matrix
model where the library uses coordinate formulas, and plain floats where
the library is exact. Oracles are slow and small-scale by design.
"""

import math
from fractions import Fraction
from itertools import product

import sympy
from sympy.matrices.normalforms import hermite_normal_form


# ---------------------------------------------------------------- linalg


def sympy_det(m):
    return Fraction(sympy.Matrix([[sympy.Rational(x) for x in row] for row in m]).det())


def sympy_hnf_columns(cols):
    """Column-style HNF of an integer matrix given as a list of columns,
    returned as a list of columns, lower-triangular convention."""
    # sympy's hermite_normal_form works on rows and returns an upper
    # triangular form for the transpose; transpose back
    m = sympy.Matrix([list(c) for c in cols]).T
    h = hermite_normal_form(m)
    return [[int(x) for x in h.col(j)] for j in range(h.cols)]


def rank_of(m):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in m]).rank()


# ---------------------------------------------------- finite group actions


def brute_common_fd(perms_left, perms_right, weights):
    """Exhaustive scan over every subset of atoms for a set that tiles
    under both permutation families. Exponential; keep n small."""
    n = len(weights)
    atoms = range(n)
    for bits in range(1 << n):
        cand = frozenset(a for a in atoms if bits >> a & 1)
        if _tiles(perms_left, cand, n) and _tiles(perms_right, cand, n):
            return cand
    return None


def _tiles(perms, cand, n):
    seen = set()
    for p in perms:
        img = {p[a] for a in cand}
        if seen & img:
            return False
        seen |= img
    return seen == set(range(n))


def measure_of(weights, atoms):
    return sum((weights[a] for a in atoms), Fraction(0))


def brute_group_error(table):
    """The message FiniteGroup raises for a square table with entries in
    range, from the checks in the same order, with associativity tested
    on all n^3 triples; None for a group law."""
    n = len(table)
    ident = [e for e in range(n)
             if all(table[e][x] == x and table[x][e] == x for x in range(n))]
    if len(ident) != 1:
        return "table has no identity element"
    e = ident[0]
    for a in range(n):
        invs = [b for b in range(n) if table[a][b] == e and table[b][a] == e]
        if len(invs) != 1:
            return f"element {a} has no two-sided inverse"
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return "multiplication table is not associative"
    return None


def brute_action_error(table, perms, side):
    """The message FiniteAction raises for permutations of the atoms that
    keep the weights, checking the (anti-)homomorphism law on every pair
    of group elements; None when it holds."""
    n = len(perms[0])
    for g, h in product(range(len(table)), repeat=2):
        if side == "left":
            comp = tuple(perms[g][perms[h][a]] for a in range(n))
        else:
            comp = tuple(perms[h][perms[g][a]] for a in range(n))
        if tuple(perms[table[g][h]]) != comp:
            kind = "homomorphism" if side == "left" else "anti-homomorphism"
            return f"perm map is not a {kind}"
    return None


def brute_commute(left_perms, right_perms):
    """Whether every permutation of one family commutes with every
    permutation of the other."""
    return all(pg[ph[a]] == ph[pg[a]]
               for pg in left_perms for ph in right_perms for a in range(len(pg)))


# ---------------------------------------------------------------- lattices


def fraction_det(a):
    """Determinant by Fraction Gaussian elimination with partial pivoting."""
    n = len(a)
    m = [[Fraction(x) for x in r] for r in a]
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return d


def fraction_inverse(a):
    """Inverse by Fraction Gauss-Jordan on [a | I]; a must be nonsingular."""
    n = len(a)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _fraction_coords(basis, M):
    """basis^-1 M over Fractions, M a list of rows."""
    inv = fraction_inverse(basis)
    return [[sum((x * M[k][j] for k, x in enumerate(row)), Fraction(0))
             for j in range(len(M[0]))] for row in inv]


def fraction_covolume(basis):
    return abs(fraction_det(basis))


def fraction_contains(basis, v):
    coords = _fraction_coords(basis, [[Fraction(x)] for x in v])
    return all(c[0].denominator == 1 for c in coords)


def fraction_index(sub_basis, basis):
    """[L : L_sub] as det of the integer matrix basis^-1 sub_basis, or
    None when L_sub is not contained in L."""
    C = _fraction_coords(basis, sub_basis)
    if any(x.denominator != 1 for row in C for x in row):
        return None
    return abs(fraction_det(C))


def fraction_lattice_intersection(basis1, basis2):
    """Canonical basis of L1 ^ L2 by duality, (L1 ^ L2)* = L1* + L2*: the
    dual of the lattice of B has basis B^-T, whose columns are the rows of
    the Fraction inverse of B."""
    from tessella.linalg import hnf_rational

    def dual_columns(basis):
        return [tuple(row) for row in fraction_inverse(basis)]

    dual_sum = hnf_rational(dual_columns(basis1) + dual_columns(basis2))
    return hnf_rational(dual_columns(dual_sum))


def lattice_points_in_box(basis_cols, lo, hi):
    """All lattice points inside a closed coordinate box, by scanning an
    integer coefficient range large enough to cover it."""
    n = len(lo)
    B = sympy.Matrix([[sympy.Rational(x) for x in row] for row in basis_cols]).T
    # crude coefficient bound: solve for the box corners
    corners = list(product(*zip(lo, hi)))
    coeffs = [B.solve(sympy.Matrix([sympy.Rational(c) for c in corner]))
              for corner in corners]
    ranges = []
    for i in range(n):
        vals = [c[i] for c in coeffs]
        ranges.append(range(int(sympy.floor(min(vals))) - 1,
                            int(sympy.ceiling(max(vals))) + 2))
    pts = []
    for ks in product(*ranges):
        v = B * sympy.Matrix(ks)
        x = tuple(Fraction(w) for w in v)
        if all(l <= xi <= h for xi, l, h in zip(x, lo, hi)):
            pts.append(x)
    return pts


def index_by_point_count(sub_cols, sup_cols):
    """Index of a sublattice by counting superlattice points in the
    sublattice's half-open fundamental parallelepiped."""
    n = len(sub_cols[0])
    S = sympy.Matrix([[sympy.Rational(x) for x in row] for row in sub_cols]).T
    lo = [min(Fraction(0), *(Fraction(S[i, j]) for j in range(n))) * n
          for i in range(n)]
    hi = [max(Fraction(0), *(Fraction(S[i, j]) for j in range(n))) * n
          for i in range(n)]
    count = 0
    for x in lattice_points_in_box(sup_cols, lo, hi):
        t = S.solve(sympy.Matrix([sympy.Rational(v) for v in x]))
        if all(0 <= Fraction(ti) < 1 for ti in t):
            count += 1
    return count


def region_ambient_bbox(region):
    """Axis-aligned bounds of a framed box union in ambient coordinates."""
    n = region.dim
    lo = [None] * n
    hi = [None] * n
    for box in region.boxes:  # box is a tuple of per-coordinate (lo, hi)
        for i in range(n):
            a = sum(min(region.frame[i][j] * box[j][0],
                        region.frame[i][j] * box[j][1]) for j in range(n))
            b = sum(max(region.frame[i][j] * box[j][0],
                        region.frame[i][j] * box[j][1]) for j in range(n))
            lo[i] = a if lo[i] is None else min(lo[i], a)
            hi[i] = b if hi[i] is None else max(hi[i], b)
    return lo, hi


def covering_multiplicity(basis_cols, region, point):
    """How many lattice translates of the region contain the point.

    Exhaustive over the exact coefficient box: a covering translate B*k
    satisfies point - B*k in bbox(region), so k ranges over the image of
    point - bbox under B^-1.
    """
    n = len(basis_cols)
    rows = [[Fraction(basis_cols[j][i]) for j in range(n)] for i in range(n)]
    blo, bhi = region_ambient_bbox(region)
    corners = [
        _solve(rows, [Fraction(point[i]) - pick[i] for i in range(n)])
        for pick in product(*zip(blo, bhi))
    ]
    klo = [math.floor(min(c[i] for c in corners)) - 1 for i in range(n)]
    khi = [math.ceil(max(c[i] for c in corners)) + 1 for i in range(n)]
    count = 0
    for ks in product(*(range(a, b + 1) for a, b in zip(klo, khi))):
        shift = tuple(
            sum(rows[i][j] * ks[j] for j in range(n)) for i in range(n))
        moved = tuple(p - s for p, s in zip(point, shift))
        if region.contains(moved):
            count += 1
    return count


def _solve(rows, rhs):
    """Gaussian elimination over Fractions; rows must be invertible."""
    n = len(rows)
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / Fraction(aug[col][col])
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


# ------------------------------------------------------- float geometry


def float_polygon_area(vertices):
    """Shoelace over float coordinates, vertices in traversal order."""
    s = 0.0
    for i, (x1, y1) in enumerate(vertices):
        x2, y2 = vertices[(i + 1) % len(vertices)]
        s += float(x1) * float(y2) - float(x2) * float(y1)
    return abs(s) / 2.0


def hull_volume(points):
    """Convex hull volume from float coordinates (scipy)."""
    from scipy.spatial import ConvexHull

    return ConvexHull([[float(x) for x in p] for p in points]).volume


# ---------------------------------------------------- Heisenberg matrices


def heis_to_matrix(g):
    """Isomorphism onto unitriangular 3x3 matrices: (x1, x2, c) maps to
    [[1, x1, (c + x1*x2)/2], [0, 1, x2], [0, 0, 1]]."""
    x1, x2, c = g
    return sympy.Matrix([
        [1, sympy.Rational(x1), sympy.Rational(Fraction(c + x1 * x2, 2))],
        [0, 1, sympy.Rational(x2)],
        [0, 0, 1],
    ])


def matrix_to_heis(m):
    x1 = Fraction(m[0, 1])
    x2 = Fraction(m[1, 2])
    t = Fraction(m[0, 2])
    return (x1, x2, 2 * t - x1 * x2)


def heis_mul_via_matrices(g, h):
    return matrix_to_heis(heis_to_matrix(g) * heis_to_matrix(h))


def heis_inv_via_matrices(g):
    return matrix_to_heis(heis_to_matrix(g).inv())


def ball_sizes_via_matrices(n_max):
    """BFS ball sizes in the integer-matrix model with the four standard
    generators; independent of the coordinate product."""
    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    gen_ms = [heis_to_matrix(g) for g in gens]
    seen = {(0, 0, 0)}
    frontier = [sympy.eye(3)]
    sizes = [1]
    for _ in range(n_max):
        nxt = []
        for m in frontier:
            for gm in gen_ms:
                p = m * gm
                key = matrix_to_heis(p)
                if key not in seen:
                    seen.add(key)
                    nxt.append(p)
        sizes.append(len(seen))
        frontier = nxt
    return sizes


def ball_sizes_bfs(n_max):
    """Ball sizes |B_0|..|B_n| by breadth-first search on integer triples
    under the coordinate product, with the four standard generators; the
    reference for the library's closed form."""
    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    sizes = [1]
    for _ in range(n_max):
        nxt = []
        for g in frontier:
            for h in gens:
                w = (g[0] + h[0], g[1] + h[1], g[2] + g[0] * h[1] - g[1] * h[0])
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


# ---------------------------------------------------- Heisenberg kernels
# The Fraction forms of the per-point kernels that `tessella.heis` runs on
# scaled integers: frame coordinates by A^-1 as a Fraction matrix, the
# reduction and the translate count as the group law on HeisPoints.


def _fraction_frame(L, g):
    from tessella.linalg import mat_inv, mat_vec

    return mat_vec(mat_inv(L.A), (g.x1, g.x2))


def fraction_cell_contains(L, g):
    t = _fraction_frame(L, g)
    return all(0 <= x < 1 for x in t) and 0 <= g.c < 1


def fraction_cell_boundary(L, g):
    t = _fraction_frame(L, g)
    return any(x == 0 or x == 1 for x in (t[0], t[1], g.c))


def fraction_psi_contains(g):
    t3 = g.c - 2 * g.x1 * g.x2
    return 0 <= g.x1 < 1 and 0 <= g.x2 < 1 and 0 <= t3 < 1


def fraction_psi_boundary(g):
    t3 = g.c - 2 * g.x1 * g.x2
    return any(x == 0 or x == 1 for x in (g.x1, g.x2, t3))


def fraction_malcev_cell(L):
    from tessella.heis import CandidateDomain, cell_bbox

    return CandidateDomain(lambda g: fraction_cell_contains(L, g), cell_bbox(L),
                           lambda g: fraction_cell_boundary(L, g))


def fraction_psi_cell():
    from tessella.heis import CandidateDomain, psi_cell

    return CandidateDomain(fraction_psi_contains, psi_cell().bbox, fraction_psi_boundary)


def _fraction_gamma(L, n1, n2, n3):
    from tessella.heis import HeisPoint
    from tessella.linalg import det, mat_vec

    p = mat_vec(L.A, (Fraction(n1), Fraction(n2)))
    return HeisPoint(p[0], p[1], n1 * n2 * det(L.A) + n3)


def _fraction_quotient(side, g, gamma):
    from tessella.heis import heis_inv, heis_mul

    if side == "left":
        return heis_mul(heis_inv(gamma), g)
    return heis_mul(g, heis_inv(gamma))


def _fraction_residue(side, c, p, q):
    cross = p[0] * q[1] - p[1] * q[0]
    return c - cross if side == "left" else c + cross


def fraction_reduce(g, L, side):
    """The Reduction of g on `side`: n1, n2 by flooring the frame
    coordinates, n3 by flooring the central residue."""
    from tessella.heis import Reduction
    from tessella.linalg import det, mat_vec

    t = _fraction_frame(L, g)
    n1, n2 = math.floor(t[0]), math.floor(t[1])
    p = mat_vec(L.A, (Fraction(n1), Fraction(n2)))
    q = (g.x1 - p[0], g.x2 - p[1])
    n3 = math.floor(_fraction_residue(side, g.c, p, q) - n1 * n2 * det(L.A))
    gamma = _fraction_gamma(L, n1, n2, n3)
    return Reduction(gamma, (n1, n2, n3), _fraction_quotient(side, g, gamma))


def fraction_count_translates(z, candidate, action):
    """(multiplicity of z among the candidate's translates, whether one of
    them lies on the candidate's boundary), with the translate ranges by
    interval arithmetic on A^-1 (z - bbox) for every sample."""
    from tessella.heis import HeisPoint
    from tessella.linalg import det, integer_ranges, mat_inv, mat_vec

    L, side = action.lattice, action.side
    (blo1, bhi1), (blo2, bhi2), (blo3, bhi3) = candidate.bbox
    r1, r2 = integer_ranges(mat_inv(L.A), (z.x1 - bhi1, z.x2 - bhi2),
                            (z.x1 - blo1, z.x2 - blo2))
    count, tainted = 0, False
    for n1 in r1:
        for n2 in r2:
            p = mat_vec(L.A, (Fraction(n1), Fraction(n2)))
            q = (z.x1 - p[0], z.x2 - p[1])
            c0 = n1 * n2 * det(L.A)
            e = _fraction_residue(side, z.c, p, q) - c0
            for n3 in range(math.ceil(e - bhi3), math.floor(e - blo3) + 1):
                w = _fraction_quotient(side, z, HeisPoint(p[0], p[1], c0 + n3))
                if candidate.boundary is not None and candidate.boundary(w):
                    tainted = True
                if candidate.contains(w):
                    count += 1
    return count, tainted


def fraction_mc_verify_tiling(candidate, action, window, samples, seed):
    """The seeded Monte Carlo report over `fraction_count_translates`, with
    the same sample stream and resampling rule as the library."""
    from tessella.heis import HeisPoint, MCReport
    from tessella.sampling import DyadicSampler

    sampler = DyadicSampler(seed)
    hist, produced, resampled = {}, 0, 0
    while produced < samples:
        z = HeisPoint(*sampler.in_box(window))
        count, tainted = fraction_count_translates(z, candidate, action)
        if tainted and resampled < 64 * samples:
            resampled += 1
            continue
        hist[count] = hist.get(count, 0) + 1
        produced += 1
    return MCReport(dict(sorted(hist.items())), samples, seed, resampled)


# ------------------------------------------------------------ box regions
# The all-pairs overlap scan, the Fraction cut-and-translate and the
# Fraction boundary count that `tessella.boxes` and `tessella.lattices`
# replaced with integer grids, and the cell-by-cell cover enumeration;
# kept as references.


def all_pairs_overlap_message(boxes):
    """The message FrameRegion raises for the first overlapping pair, by
    comparing every pair of boxes in index order; None when disjoint."""
    from tessella.boxes import boxes_overlap

    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if boxes_overlap(boxes[i], boxes[j]):
                return f"boxes {i} and {j} overlap"
    return None


def fraction_region_boxes(n, boxes):
    """The Fraction boxes of an n-dimensional FrameRegion, built the way
    the region once was: each box through `frac`, box by box, with every
    check in the region's order; raises what the region raises."""
    from tessella.errors import InvalidInput
    from tessella.linalg import frac

    out = []
    for b in boxes:
        lo = [x[0] for x in b]
        hi = [x[1] for x in b]
        lo = [frac(x) for x in lo]
        hi = [frac(x) for x in hi]
        if len(lo) != len(hi):
            raise InvalidInput("box corner dimensions differ")
        if any(a >= b for a, b in zip(lo, hi)):
            raise InvalidInput("box needs lo < hi on every axis")
        out.append(tuple(zip(lo, hi)))
    if any(len(b) != n for b in out):
        raise InvalidInput("box dimension does not match the frame")
    message = all_pairs_overlap_message(out)
    if message is not None:
        raise InvalidInput(message)
    return tuple(out)


def cell_by_cell_cover(pieces, bounds):
    """`compressed_cover` building each cell's tuple and flat index one
    cell at a time, with one prefix-sum step per array entry."""
    from bisect import bisect_left

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
    diff = [0] * acc
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


def fraction_reduce_mod(region, basis):
    """`reduce_mod` with every coordinate a Fraction: cut each box at the
    multiples of H[j][j], translate the pieces, and count the cover with
    `cell_by_cell_cover` on Fraction corners. Returns the Fraction fields
    of `ReducedRegion` as a namespace."""
    from types import SimpleNamespace

    from tessella.linalg import denominator_lcm, floor_frac, hnf, mat, mat_inv, mat_mul

    B = region.frame
    n = region.dim
    M = mat_mul(mat_inv(B), mat(basis))
    scales = [denominator_lcm(row) for row in M]
    K = [[int(M[i][j] * scales[i]) for j in range(n)] for i in range(n)]
    H = hnf(K)
    refined = tuple(
        tuple(B[i][j] / scales[j] for j in range(n)) for i in range(n)
    )
    pieces = []
    for b in region.boxes:
        scaled = [[lo * scales[i], hi * scales[i]] for i, (lo, hi) in enumerate(b)]
        pieces.append((scaled, [0] * n))
    for j in range(n):
        hjj = Fraction(H[j][j])
        nxt = []
        for bx, w in pieces:
            lo, hi = bx[j]
            m = floor_frac(lo / hjj)
            while Fraction(m) * hjj < hi:
                seg_lo = max(lo, m * hjj)
                seg_hi = min(hi, (m + 1) * hjj)
                if seg_lo < seg_hi:
                    nb = [list(iv) for iv in bx]
                    nb[j] = [seg_lo - m * hjj, seg_hi - m * hjj]
                    for i in range(j + 1, n):
                        if H[i][j]:
                            nb[i] = [nb[i][0] - m * H[i][j], nb[i][1] - m * H[i][j]]
                    nw = list(w)
                    nw[j] += m
                    nxt.append((nb, nw))
                m += 1
        pieces = nxt
    torus = tuple((Fraction(0), Fraction(H[j][j])) for j in range(n))
    frozen_pieces = tuple(
        (tuple((lo, hi) for lo, hi in bx), tuple(w)) for bx, w in pieces
    )
    levels = {}
    uncovered = []
    for cell, count in cell_by_cell_cover([(bx, 1) for bx, _ in frozen_pieces], torus):
        if count == 0:
            uncovered.append(cell)
        else:
            levels.setdefault(count, []).append(cell)
    return SimpleNamespace(
        frame=refined,
        torus=torus,
        levels={m: tuple(cells) for m, cells in sorted(levels.items())},
        uncovered=tuple(uncovered),
        pieces=frozen_pieces,
        cell_basis=mat_mul(refined, tuple(tuple(map(Fraction, row)) for row in H)),
    )


def fraction_boundary_count(red):
    """(interior, boundary) of `boundary_count(L, A)` with the default
    domain, from red = `fraction_reduce_mod(A, L.basis)`: each translate's
    Fraction piece volumes are summed and compared with the torus volume."""
    from tessella.boxes import box_volume

    cell = box_volume(red.torus)
    per_shift = {}
    for piece, w in red.pieces:
        per_shift[w] = per_shift.get(w, Fraction(0)) + box_volume(piece)
    interior = sum(1 for vol in per_shift.values() if vol == cell)
    boundary = sum(1 for vol in per_shift.values() if 0 < vol != cell)
    return interior, boundary


def fraction_multiplicity_witness(red, exact):
    """The witness `verify_tiling_exact` (exact) or `verify_packing_exact`
    reports, read from the Fraction levels of `fraction_reduce_mod`'s
    result: the centre of the first cell of the least multiplicity >= 2,
    else, when exact, of the first uncovered cell; None when neither."""
    from tessella.boxes import box_center
    from tessella.linalg import mat_vec

    cells = [(m, red.levels[m][0]) for m in sorted(red.levels) if m >= 2]
    if exact and red.uncovered:
        cells.append((0, red.uncovered[0]))
    if not cells:
        return None
    m, cell = cells[0]
    return {"point": list(mat_vec(red.frame, box_center(cell))), "multiplicity": m}


# --------------------------------------------------------- Dirichlet cells
# The Fraction pipeline that `tessella.dirichlet` replaced with scaled
# integers: short vectors in the box of the given basis, a Gauss-Jordan
# solve per n-subset of bisectors, and facet rings ordered by angle.


def fraction_dirichlet_domain(L, x0=None):
    """`dirichlet_domain` with every coordinate a Fraction, enumerating
    short vectors in the box spanned by the given (unreduced) basis."""
    from tessella.dirichlet import ConvexCell
    from tessella.linalg import dot, frac

    n = L.dim
    base = tuple(frac(x) for x in (x0 if x0 is not None else [0] * n))
    halfspaces = [(v, dot(v, base) + dot(v, v) / 2)
                  for v in _fraction_relevant_vectors(L)]
    vertices = _fraction_vertex_candidates(halfspaces, n)
    facets = _fraction_prune_to_facets(halfspaces, vertices, n)
    return ConvexCell(
        halfspaces=tuple(sorted(facets)),
        vertices=tuple(vertices),
        volume=_fraction_volume(vertices, facets, base, n),
    )


def _fraction_relevant_vectors(L):
    from tessella.linalg import dot, gram_schmidt, mat_inv, mat_vec

    bound_sq = sum(gram_schmidt(L.columns)[0], Fraction(0))
    Binv = mat_inv(L.basis)
    ranges = []
    for row in Binv:
        q = bound_sq * sum((x * x for x in row), Fraction(0))
        m = math.isqrt(q.numerator * q.denominator) // q.denominator
        ranges.append(range(-m, m + 1))
    candidates = []
    for z in product(*ranges):
        if any(z):
            v = mat_vec(L.basis, tuple(Fraction(zi) for zi in z))
            if dot(v, v) <= bound_sq:
                candidates.append(v)
    candidates.sort()
    return [v for v in candidates
            if all(dot(v, u) <= dot(u, u) for u in candidates)]


def _fraction_vertex_candidates(halfspaces, n):
    from itertools import combinations

    from tessella.linalg import det, dot, mat_inv, mat_vec

    seen = set()
    for combo in combinations(range(len(halfspaces)), n):
        rows = tuple(halfspaces[i][0] for i in combo)
        if det(rows) == 0:
            continue
        p = mat_vec(mat_inv(rows), tuple(halfspaces[i][1] for i in combo))
        if p not in seen and all(dot(nrm, p) <= off for nrm, off in halfspaces):
            seen.add(p)
    return sorted(seen)


def _fraction_ccw_order(points, center):
    from functools import cmp_to_key

    def half(d):
        return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1

    def cmp(a, b):
        da = (a[0] - center[0], a[1] - center[1])
        db = (b[0] - center[0], b[1] - center[1])
        if half(da) != half(db):
            return half(da) - half(db)
        cr = da[0] * db[1] - da[1] * db[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    return sorted(points, key=cmp_to_key(cmp))


def _fraction_incident(halfspace, vertices):
    from tessella.linalg import dot

    nrm, off = halfspace
    return sorted({p for p in vertices if dot(nrm, p) == off})


def _fraction_prune_to_facets(halfspaces, vertices, n):
    from itertools import combinations

    from tessella.linalg import vec_sub

    kept = []
    for hs in halfspaces:
        pts = _fraction_incident(hs, vertices)
        if len(pts) < n:
            continue
        if n == 3:
            dirs = [vec_sub(p, pts[0]) for p in pts[1:]]
            if not any(
                d1[1] * d2[2] - d1[2] * d2[1] or d1[2] * d2[0] - d1[0] * d2[2]
                or d1[0] * d2[1] - d1[1] * d2[0]
                for d1, d2 in combinations(dirs, 2)
            ):
                continue
        kept.append(hs)
    return kept


def _fraction_volume(vertices, halfspaces, x0, n):
    from tessella.linalg import det, vec_sub

    if n == 1:
        xs = sorted(p[0] for p in vertices)
        return xs[-1] - xs[0]
    if n == 2:
        ring = _fraction_ccw_order(vertices, x0)
        area = Fraction(0)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            a, b = vec_sub(a, x0), vec_sub(b, x0)
            area += a[0] * b[1] - a[1] * b[0]
        return abs(area) / 2
    vol = Fraction(0)
    for hs in halfspaces:
        pts = _fraction_incident(hs, vertices)
        # order the facet ring by projecting out the dominant normal axis
        drop = max(range(3), key=lambda i: abs(hs[0][i]))
        keep = [i for i in range(3) if i != drop]
        proj = {p: (p[keep[0]], p[keep[1]]) for p in pts}
        centroid = tuple(sum((q[j] for q in proj.values()), Fraction(0)) / len(pts)
                         for j in range(2))
        back = {q: p for p, q in proj.items()}
        ordered = [back[q] for q in _fraction_ccw_order(list(proj.values()), centroid)]
        q0 = vec_sub(ordered[0], x0)
        for a, b in zip(ordered[1:], ordered[2:]):
            vol += abs(det((q0, vec_sub(a, x0), vec_sub(b, x0))))
    return vol / 6


# ----------------------------------------------------- JSON round trips
# Writers and readers for values that no command prints or reads; the
# round-trip tests of tests/test_jsonio.py use them.


def lattice_json(L):
    from tessella.jsonio import matrix_json

    return {"dim": L.dim, "basis": matrix_json(L.basis)}


def heis_lattice_json(L):
    from tessella.jsonio import matrix_json

    return {"A": matrix_json(L.A)}


def parse_heis_aut(obj):
    from tessella.heis import HeisAut
    from tessella.jsonio import _require, parse_matrix

    return HeisAut(parse_matrix(_require(obj, "A", "automorphism")))
