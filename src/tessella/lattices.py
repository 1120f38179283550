"""Full-rank rational lattices in R^n and their tiling arithmetic.

Covolumes, sums, intersections and indices, exact tiling and packing
verification of box regions, constructive common fundamental domains for
commensurable pairs of equal covolume, the k + eps splitting, component
translation systems, function tilings, and boundary-count diagnostics.
All rational lattice pairs of equal dimension are commensurable, so the
constructions here never need a limiting argument. Covolumes, membership,
indices and cell images are read in ints from each lattice's integer form
(`linalg.IntBasis`); intersections are integer meets in sum coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from typing import Iterable, Optional, Sequence

from .boxes import (
    Box,
    FrameRegion,
    ReducedRegion,
    box_center,
    box_volume,
    boxes_overlap,
    compressed_cover,
    reduce_mod,
)
from .errors import (
    ConditionFails,
    CovolumeMismatch,
    Incommensurable,
    InvalidDomain,
    InvalidInput,
    NotSublattice,
    TooLarge,
)
from .finite import VerifyResult, measure_result
from .flows import select_and_deal
from .linalg import (
    IntBasis,
    Mat,
    Vec,
    floor_frac,
    frac,
    hnf,
    hnf_rational,
    identity,
    integer_meet,
    integer_ranges,
    mat,
    mat_mul,
    mat_vec,
    transpose,
)


class EucLattice:
    """Lattice generated by the columns of a nonsingular rational B, with its integer form."""

    def __init__(self, basis):
        self.basis = mat(basis)
        n = len(self.basis)
        if any(len(r) != n for r in self.basis):
            raise InvalidInput("lattice basis must be square")
        self.form = IntBasis.of(self.basis)
        if self.form is None:
            raise InvalidInput("lattice basis must be nonsingular")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def columns(self) -> list[Vec]:
        return [tuple(row[j] for row in self.basis) for j in range(self.dim)]

    @cached_property
    def canonical_basis(self) -> Mat:
        """Hermite-reduced basis; equal lattices get equal matrices."""
        return hnf_rational(self.columns)

    def same_lattice(self, other: "EucLattice") -> bool:
        return self.dim == other.dim and self.canonical_basis == other.canonical_basis

    def contains(self, v: Sequence) -> bool:
        column = tuple((x,) for x in v)
        if len(column) != self.dim:
            raise ValueError("vector dimension does not match the lattice")
        return self.form.coordinates(column) is not None

    @classmethod
    def standard(cls, n: int) -> "EucLattice":
        return cls(identity(n))


def covolume(L: EucLattice) -> Fraction:
    """Measure of any fundamental domain: |det basis|."""
    return abs(L.form.det)


def lattice_sum(L1: EucLattice, L2: EucLattice) -> EucLattice:
    """Lattice generated by both; Hermite-reduced basis."""
    if L1.dim != L2.dim:
        raise Incommensurable("lattices of different dimension")
    return EucLattice(hnf_rational(L1.columns + L2.columns))


def lattice_intersection(L1: EucLattice, L2: EucLattice) -> EucLattice:
    """Common sublattice: S = L1 + L2 times the meet of their images in S."""
    S = lattice_sum(L1, L2)
    meet = integer_meet(_hnf_image(S, L1), _hnf_image(S, L2))
    return EucLattice(hnf_rational(transpose(mat_mul(S.basis, meet))))


def index(L_sub: EucLattice, L: EucLattice) -> int:
    """[L : L_sub], the covolume ratio, as an exact positive integer."""
    if L_sub.dim != L.dim:
        raise NotSublattice("lattices of different dimension")
    if L.form.coordinates(L_sub.basis) is None:
        raise NotSublattice("first lattice is not contained in the second")
    return int(covolume(L_sub) / covolume(L))


def fundamental_parallelepiped(L: EucLattice) -> FrameRegion:
    """The half-open box [0,1)^n in the basis frame; tiles by L."""
    n = L.dim
    return FrameRegion(L.basis, (tuple((Fraction(0), Fraction(1)) for _ in range(n)),))


def region_reduce_mod(R: FrameRegion, L: EucLattice) -> ReducedRegion:
    """R modulo L: multiplicity levels on a fundamental torus of L.

    R keeps its last reduction, in one slot keyed by the basis of L
    compared by value, so the tiling and packing verdicts on one region
    and lattice reduce once. The slot lives and dies with R."""
    basis, reduced = R._reduction
    if basis != L.basis:
        reduced = reduce_mod(R, L.basis)
        object.__setattr__(R, "_reduction", (L.basis, reduced))
    return reduced


def _witness_point(reduced: ReducedRegion, cell) -> list[Fraction]:
    """The ambient centre of a grid cell of the reduction."""
    return list(mat_vec(reduced.frame, box_center(reduced.as_fractions(cell))))


def _multiplicity_check(R: FrameRegion, L: EucLattice, exact: bool) -> VerifyResult:
    """Reduce R modulo L; fail on a point of the least multiplicity >= 2,
    or, when exact, on an uncovered point (multiplicity 0). Only the
    witness cell leaves the integer grid."""
    red = region_reduce_mod(R, L)
    for m, cells in red.grid_levels.items():
        if m >= 2:
            return VerifyResult(False, {
                "point": _witness_point(red, cells[0]), "multiplicity": m})
    if exact and red.grid_uncovered:
        return VerifyResult(False, {
            "point": _witness_point(red, red.grid_uncovered[0]), "multiplicity": 0})
    return VerifyResult(True)


def verify_tiling_exact(R: FrameRegion, L: EucLattice) -> VerifyResult:
    """Exact tiling check: translates of R under L partition R^n.

    Equivalent to the reduction having multiplicity one on the whole
    torus. The witness of a failure is a rational point covered zero or
    at least two times.
    """
    return _multiplicity_check(R, L, exact=True)


def verify_packing_exact(R: FrameRegion, L: EucLattice) -> VerifyResult:
    """Exact packing check: translates of R under L are pairwise disjoint."""
    return _multiplicity_check(R, L, exact=False)


def _reduce_vec(v: Sequence[int], H: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Canonical representative of v modulo the column lattice of the
    lower-triangular H: coordinates brought into [0, H[j][j]) in order."""
    v = list(v)
    n = len(v)
    for j in range(n):
        m = v[j] // H[j][j]
        if m:
            for i in range(j, n):
                v[i] -= m * H[i][j]
    return tuple(v)


def _hnf_image(S: EucLattice, L: EucLattice) -> list[list[int]]:
    """HNF of S^-1·L, the image of L <= S in S-coordinates (L <= S always)."""
    return hnf(S.form.coordinates(L.basis))


# Most cells a lattice construction enumerates: five times the largest
# request of the test suite (1521 cells). Near the budget a common domain
# takes about 0.03 s on one 2-vCPU host (7569 cells).
MAX_CELLS = 7700


class _CellSystem:
    """Cells of the sum lattice S modulo Delta = L1 ^ L2, with their labels.

    In S-coordinates every lattice between Delta and S is an integer
    lattice. The cells are the unit boxes of the S frame at the offsets r
    of the HNF transversal of Delta (`reps`, in increasing order), and
    L1/Delta and L2/Delta act on them by adding offsets. Two cells lie in
    one L1-coset exactly when r - r' lies in the image of L1, which
    contains that of Delta. So the label of a cell is r reduced modulo
    H1, the HNF of that image: `_reduce_vec` returns the one canonical
    representative of r + H1 Z^n, and two cells get equal labels exactly
    when they share an L1-coset. `left` and `right` hold the L1 and L2
    labels, aligned with `reps`. The cell count [S : Delta] is checked
    against MAX_CELLS before any cell is built.
    """

    def __init__(self, L1: EucLattice, L2: EucLattice, first_axis_split: int = 1):
        S = lattice_sum(L1, L2)
        if first_axis_split > 1:
            S = EucLattice([(row[0] / first_axis_split,) + row[1:] for row in S.basis])
        self.S = S
        H1, H2 = _hnf_image(S, L1), _hnf_image(S, L2)
        H = integer_meet(H1, H2)
        cells = prod(H[j][j] for j in range(S.dim))
        if cells > MAX_CELLS:
            raise TooLarge(f"{cells} cells exceed the budget of {MAX_CELLS}")
        self.reps = list(product(*[range(H[j][j]) for j in range(S.dim)]))
        self.left = [_reduce_vec(r, H1) for r in self.reps]
        self.right = [_reduce_vec(r, H2) for r in self.reps]

    def cell_region(self, reps: Iterable[tuple[int, ...]]) -> FrameRegion:
        boxes = tuple(
            tuple((Fraction(r[j]), Fraction(r[j] + 1)) for j in range(self.S.dim))
            for r in sorted(reps)
        )
        return FrameRegion(self.S.basis, boxes)


def common_fd_commensurable(L1: EucLattice, L2: EucLattice) -> FrameRegion:
    """A region tiling by both lattices, of measure the shared covolume.

    Cells of the sum lattice modulo the intersection are labelled by
    their L1-coset and their L2-coset, and `flows.select_and_deal` with
    k = 1, eps = 0 picks one cell per coset on each side (each joint coset
    is a complete bipartite block with as many L1-cosets as L2-cosets, so
    its counting scan always finds one); the lexicographically least
    choice is returned. This is F_1 of `construct_k_epsilon_lattices`
    with k = 1, eps = 0, which verifies it against both lattices before
    return.
    """
    if L1.dim != L2.dim:
        raise Incommensurable("lattices of different dimension")
    if covolume(L1) != covolume(L2):
        raise CovolumeMismatch(
            f"covolumes differ: {covolume(L1)} vs {covolume(L2)}")
    if L1.same_lattice(L2):
        return fundamental_parallelepiped(L1)
    return construct_k_epsilon_lattices(L1, L2)[0][0]


def construct_k_epsilon_lattices(
    L1: EucLattice, L2: EucLattice
) -> tuple[list[FrameRegion], FrameRegion]:
    """Split covolume(L1)/covolume(L2) = k + eps into k regions tiling by
    L2 plus a packing remainder of measure eps * covolume(L2), the whole
    family partitioning a region that tiles by L1.

    Cells are refined along the first frame axis by the denominator of
    eps; `flows.select_and_deal` then runs the finite engine's selection
    on the cells, labelled by their L1- and L2-cosets, whose components
    are the joint cosets. More than MAX_CELLS refined cells raise
    TooLarge before any is built; every part is verified before return,
    and a failed check raises ConstructionFailed with its witness.
    """
    if L1.dim != L2.dim:
        raise Incommensurable("lattices of different dimension")
    ratio = covolume(L1) / covolume(L2)
    if ratio < 1:
        raise ConditionFails(
            f"covolume ratio {ratio} < 1 leaves no room for a fundamental domain")
    k = floor_frac(ratio)
    eps = ratio - k
    cs = _CellSystem(L1, L2, first_axis_split=eps.denominator)
    picked, rest = select_and_deal(cs.left, cs.right, k, eps, exact_left=True)
    fs_cells = [[cs.reps[e] for e in f] for f in picked]
    feps_cells = [cs.reps[e] for e in rest]
    fs = [cs.cell_region(cells) for cells in fs_cells]
    feps = cs.cell_region(feps_cells)
    for i, f in enumerate(fs, 1):
        verify_tiling_exact(f, L2).require(f"F_{i} does not tile by L2")
        measure_result(f.measure, covolume(L2)).require(
            f"F_{i} does not have the covolume of L2")
    verify_packing_exact(feps, L2).require("F_eps does not pack by L2")
    measure_result(feps.measure, eps * covolume(L2)).require(
        "F_eps does not have measure eps * covolume(L2)")
    union = cs.cell_region(feps_cells + [r for cells in fs_cells for r in cells])
    verify_tiling_exact(union, L1).require(
        "F_1..F_k and F_eps do not tile by L1")
    return fs, feps


@dataclass(frozen=True)
class TSComponent:
    """One component of a translation system: the two generator images."""
    dim: int
    gamma_vectors: Mat
    lambda_vectors: Mat

    def __post_init__(self):
        object.__setattr__(self, "gamma_vectors", mat(self.gamma_vectors))
        object.__setattr__(self, "lambda_vectors", mat(self.lambda_vectors))
        for m in (self.gamma_vectors, self.lambda_vectors):
            if len(m) != self.dim:
                raise InvalidInput("generator matrix has wrong row count")

    def gamma_lattice(self) -> EucLattice:
        return _image_lattice(self.gamma_vectors)

    def lambda_lattice(self) -> EucLattice:
        return _image_lattice(self.lambda_vectors)


def _image_lattice(vectors: Mat) -> EucLattice:
    try:
        return EucLattice(hnf_rational(transpose(vectors)))
    except ValueError as exc:
        raise InvalidInput(f"generator image is not a full-rank lattice: {exc}")


class TranslationSystem:
    """Two rank-d translation groups acting on a disjoint union of
    Euclidean components; generator j translates component c by column j
    of the component's gamma (resp. lambda) matrix."""

    def __init__(self, rank: int, components: Sequence[TSComponent]):
        if rank < 1:
            raise InvalidInput("rank must be at least 1")
        if not components:
            raise InvalidInput("at least one component required")
        for comp in components:
            if len(comp.gamma_vectors[0]) != rank or len(comp.lambda_vectors[0]) != rank:
                raise InvalidInput("generator matrix has wrong column count")
        self.rank = rank
        self.components = tuple(components)
        for comp in self.components:
            comp.gamma_lattice()
            comp.lambda_lattice()


@dataclass(frozen=True)
class TSReport:
    ok: bool
    ratios: tuple[Fraction, ...]
    offending: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.ok


def translation_system_check(
    ts: TranslationSystem,
    X: Sequence[FrameRegion],
    Y: Sequence[FrameRegion],
) -> TSReport:
    """PASS iff the per-component covolume ratios agree.

    X[c] (resp. Y[c]) must tile component c by the gamma (resp. lambda)
    image lattice; verified first. Equal ratios are equivalent to
    m(A & X) / m(A & Y) being constant over all jointly invariant sets,
    since every invariant set decomposes over components and within one
    component both measures scale with the same cell counts.
    """
    if len(X) != len(ts.components) or len(Y) != len(ts.components):
        raise InvalidInput("one region per component required in X and Y")
    ratios = []
    for c, comp in enumerate(ts.components):
        vg = verify_tiling_exact(X[c], comp.gamma_lattice())
        if not vg:
            raise InvalidDomain(f"X[{c}] does not tile its component: {vg.witness}")
        vl = verify_tiling_exact(Y[c], comp.lambda_lattice())
        if not vl:
            raise InvalidDomain(f"Y[{c}] does not tile its component: {vl.witness}")
        ratios.append(covolume(comp.gamma_lattice()) / covolume(comp.lambda_lattice()))
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            if ratios[i] != ratios[j]:
                return TSReport(False, tuple(ratios), (i, j))
    return TSReport(True, tuple(ratios))


def translation_system_common_fd(ts: TranslationSystem) -> list[FrameRegion]:
    """Per-component common fundamental domains; requires every component
    ratio to equal 1 (otherwise the equality condition fails on the
    component, ConditionFails)."""
    ratios = [
        covolume(c.gamma_lattice()) / covolume(c.lambda_lattice())
        for c in ts.components
    ]
    bad = [i for i, r in enumerate(ratios) if r != 1]
    if bad:
        raise ConditionFails(
            f"component covolume ratios {[str(r) for r in ratios]} are not all 1")
    return [
        common_fd_commensurable(c.gamma_lattice(), c.lambda_lattice())
        for c in ts.components
    ]


@dataclass(frozen=True)
class StepFunction:
    """Nonnegative rational step function: sum of coeff * indicator(region),
    all regions sharing one frame."""
    terms: tuple[tuple[FrameRegion, Fraction], ...]

    def __post_init__(self):
        terms = tuple((r, frac(c)) for r, c in self.terms)
        if any(c < 0 for _, c in terms):
            raise InvalidInput("coefficients must be nonnegative")
        frames = {r.frame for r, _ in terms}
        if len(frames) > 1:
            raise InvalidInput("all terms must share one frame")
        object.__setattr__(self, "terms", terms)


def function_tiling_check(f: StepFunction, L: EucLattice) -> bool:
    """Exact check that the L-periodization of f is constantly 1."""
    if not f.terms:
        return False
    weighted: list[tuple[Box, Fraction]] = []
    torus = None
    for region, coeff in f.terms:
        red = region_reduce_mod(region, L)
        torus = red.torus
        for piece, _ in red.pieces:
            weighted.append((piece, coeff))
    assert torus is not None
    return all(value == 1 for _, value in compressed_cover(weighted, torus))


@dataclass(frozen=True)
class BoundaryCount:
    interior: int
    boundary: int


def boundary_count(
    L: EucLattice, A: FrameRegion, X: Optional[FrameRegion] = None
) -> BoundaryCount:
    """Count lattice translates of the domain X inside and straddling A.

    interior: translates gamma.X with m(gamma.X & A) = m(X);
    boundary: translates with 0 < m(gamma.X & A) < m(X).

    With the default X (the fundamental parallelepiped of the reduction
    basis of L) the counts come from the mod-L reduction of A, which
    tracks the translate each piece came from, so they are exact for any
    rational L; each translate's volume is summed on the reduction's
    integer grid. A custom X must share A's frame; then the translates are
    enumerated directly by interval arithmetic. Both compare frame volumes.
    """
    if X is None:
        red = region_reduce_mod(A, L)
        cell = prod(hi for _, hi in red.grid_torus)
        per_shift: dict[tuple[int, ...], int] = {}
        for piece, w in red.grid_pieces:
            per_shift[w] = per_shift.get(w, 0) + prod(hi - lo for lo, hi in piece)
        interior = boundary = 0
        for vol in per_shift.values():
            if vol == cell:
                interior += 1
            elif vol > 0:
                boundary += 1
        return BoundaryCount(interior, boundary)

    if X.frame != A.frame:
        raise InvalidInput("a custom domain must share the frame of A")
    C = mat_mul(A.form.inverse(), L.basis)
    n = A.dim
    lo_a = [min(b[j][0] for b in A.boxes) for j in range(n)]
    hi_a = [max(b[j][1] for b in A.boxes) for j in range(n)]
    lo_x = [min(b[j][0] for b in X.boxes) for j in range(n)]
    hi_x = [max(b[j][1] for b in X.boxes) for j in range(n)]
    # frame-coordinate translation t = C z must put bbox(X)+t against bbox(A)
    t_lo = [lo_a[j] - hi_x[j] for j in range(n)]
    t_hi = [hi_a[j] - lo_x[j] for j in range(n)]
    m_x = sum((box_volume(bx) for bx in X.boxes), Fraction(0))
    interior = boundary = 0
    for z in product(*integer_ranges(mat_mul(L.form.inverse(), A.frame), t_lo, t_hi)):
        t = mat_vec(C, tuple(Fraction(x) for x in z))
        m = Fraction(0)
        for bx in X.boxes:
            shifted = tuple((lo + t[j], hi + t[j]) for j, (lo, hi) in enumerate(bx))
            for ba in A.boxes:
                if boxes_overlap(shifted, ba):
                    m += box_volume(tuple((max(l1, l2), min(h1, h2))
                                          for (l1, h1), (l2, h2) in zip(shifted, ba)))
        if m == m_x:
            interior += 1
        elif m > 0:
            boundary += 1
    return BoundaryCount(interior, boundary)


@dataclass(frozen=True)
class BoundaryEntry:
    interior: int
    boundary: int
    measure: Fraction
    ratio: Fraction
    inner_measure: Fraction
    outer_measure: Fraction


def boundary_series(L: EucLattice, regions: Sequence[FrameRegion]) -> list[BoundaryEntry]:
    """Boundary diagnostic along a sequence of regions: counts, the ratio
    N_b / m(A), and the sandwich m(inner) <= m(A) <= m(outer) given by the
    interior translates alone and by interior plus straddling ones.
    Every region needs positive measure (InvalidInput otherwise)."""
    out = []
    cv = covolume(L)
    for A in regions:
        m = A.measure
        if m == 0:
            raise InvalidInput("boundary regions must have positive measure")
        bc = boundary_count(L, A)
        out.append(BoundaryEntry(
            interior=bc.interior,
            boundary=bc.boundary,
            measure=m,
            ratio=Fraction(bc.boundary) / m,
            inner_measure=bc.interior * cv,
            outer_measure=(bc.interior + bc.boundary) * cv,
        ))
    return out
