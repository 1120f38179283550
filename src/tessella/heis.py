"""Exact arithmetic on the rational points of the Heisenberg group.

The group is R^2 x R with product (x,c)(y,d) = (x+y, c+d+x1 y2 - x2 y1);
Haar measure is Lebesgue measure in these coordinates. Everything here is
rational and exact: the group law, two exponential charts, the
determinant-one planar automorphisms, lattices given by planar generator
data, constructive reduction to a half-open cell, seeded Monte Carlo
tiling verification, and word-metric ball growth of the integer points.

A lattice acts on the left (g -> gamma g) or on the right (g -> g gamma),
by one code path: the side only flips the sign of the central cross term
(`_residue`) and the order of the quotient (`_quotient`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log
from typing import Callable, Optional

from .boxes import Box
from .errors import (
    ConstructionFailed,
    InvalidInput,
    NotMeasurePreserving,
    TooLarge,
    WindowTooSmall,
)
from .linalg import Mat, det, floor_frac, frac, integer_ranges, mat, mat_inv, mat_mul, mat_vec
from .sampling import DyadicSampler


@dataclass(frozen=True)
class HeisPoint:
    x1: Fraction
    x2: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x1", frac(self.x1))
        object.__setattr__(self, "x2", frac(self.x2))
        object.__setattr__(self, "c", frac(self.c))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x1, self.x2, self.c)


HEIS_IDENTITY = HeisPoint(0, 0, 0)


def heis_mul(g: HeisPoint, h: HeisPoint) -> HeisPoint:
    return HeisPoint(
        g.x1 + h.x1,
        g.x2 + h.x2,
        g.c + h.c + g.x1 * h.x2 - g.x2 * h.x1,
    )


def heis_inv(g: HeisPoint) -> HeisPoint:
    # the central cross term cancels at (x, -x), so negation inverts
    return HeisPoint(-g.x1, -g.x2, -g.c)


@dataclass(frozen=True)
class LieVec:
    u1: Fraction
    u2: Fraction
    u3: Fraction

    def __post_init__(self):
        object.__setattr__(self, "u1", frac(self.u1))
        object.__setattr__(self, "u2", frac(self.u2))
        object.__setattr__(self, "u3", frac(self.u3))


def lie_bracket(v: LieVec, w: LieVec) -> LieVec:
    """[v, w] in the basis with [X1, X2] = 2 X3, the bracket matching the
    central cross term of the group law."""
    return LieVec(0, 0, 2 * (v.u1 * w.u2 - v.u2 * w.u1))


def heis_exp(v: LieVec) -> HeisPoint:
    """The cube-straightening chart (u1, u2, u3) -> (u1, u2, u3 + 2 u1 u2).

    Unit Jacobian determinant; it carries the unit cube onto a domain
    that tiles under the integer points (see psi_image_domain_check).
    """
    return HeisPoint(v.u1, v.u2, v.u3 + 2 * v.u1 * v.u2)


def heis_log(g: HeisPoint) -> LieVec:
    return LieVec(g.x1, g.x2, g.c - 2 * g.x1 * g.x2)


def flow_exp(v: LieVec) -> HeisPoint:
    """Exponential along one-parameter subgroups.

    In these coordinates t -> (t u1, t u2, t u3) is a homomorphism (the
    central cross term is antisymmetric), so this chart is the identity.
    heis_exp is a different chart and is not a one-parameter exponential.
    """
    return HeisPoint(v.u1, v.u2, v.u3)


def cbh_identity_check(v: LieVec, w: LieVec) -> bool:
    """Exact check of the step-2 product form of the exponential:
    exp(v) exp(w) = exp(v + w + (1/2)[v, w]) with exp = flow_exp."""
    b = lie_bracket(v, w)
    s = LieVec(v.u1 + w.u1, v.u2 + w.u2, v.u3 + w.u3 + b.u3 / 2)
    return heis_mul(flow_exp(v), flow_exp(w)) == flow_exp(s)


def _planar_matrix(A, what: str) -> Mat:
    """A as a 2x2 rational matrix; InvalidInput naming `what` otherwise."""
    A = mat(A)
    if len(A) != 2 or any(len(r) != 2 for r in A):
        raise InvalidInput(f"{what} data must be a 2x2 matrix")
    return A


@dataclass(frozen=True)
class HeisAut:
    """Planar determinant-one map (x, c) -> (A x, c).

    These are exactly the measure-preserving automorphisms fixing the
    center pointwise: the central cross term is the planar symplectic
    form, which a 2x2 matrix preserves precisely when its determinant
    is 1.
    """

    A: Mat

    def __post_init__(self):
        A = _planar_matrix(self.A, "automorphism")
        d = det(A)
        if d != 1:
            raise NotMeasurePreserving(f"determinant {d} != 1")
        object.__setattr__(self, "A", A)


def aut_apply(alpha: HeisAut, g: HeisPoint) -> HeisPoint:
    x = mat_vec(alpha.A, (g.x1, g.x2))
    return HeisPoint(x[0], x[1], g.c)


def aut_compose(a1: HeisAut, a2: HeisAut) -> HeisAut:
    return HeisAut(mat_mul(a1.A, a2.A))


def aut_dilation(p) -> HeisAut:
    """(x1, x2, c) -> (p x1, x2 / p, c)."""
    p = frac(p)
    if p == 0:
        raise InvalidInput("dilation parameter must be nonzero")
    return HeisAut(((p, Fraction(0)), (Fraction(0), 1 / p)))


def aut_shear_upper(s) -> HeisAut:
    """(x1, x2, c) -> (x1 + s x2, x2, c)."""
    return HeisAut(((Fraction(1), frac(s)), (Fraction(0), Fraction(1))))


def aut_shear_lower(s) -> HeisAut:
    """(x1, x2, c) -> (x1, x2 + s x1, c)."""
    return HeisAut(((Fraction(1), Fraction(0)), (frac(s), Fraction(1))))


def aut_is_homomorphism_check(A) -> bool:
    """Whether (x, c) -> (A x, c) respects the product, for a raw 2x2
    rational matrix (no determinant precondition).

    The central term of (A x, c)(A y, d) is c + d + det(A) w(x, y), with
    w the planar symplectic form, and that of the image of (x, c)(y, d)
    is c + d + w(x, y); they agree for all x, y exactly when det A = 1.
    """
    return det(_planar_matrix(A, "automorphism")) == 1


@dataclass(frozen=True)
class HeisLattice:
    """Lattice from planar generator data: columns of A are the planar
    parts of the two non-central generators, the third generator is the
    central (0, 0, 1).

    The subgroup generated is
        { (A n, n1 n2 det A + n3) : n in Z^2, n3 in Z },
    which is closed under the product exactly when 2 det A is an integer
    (the product picks up a 2 n2 m1 det A central correction); det A = 0
    would collapse the planar rank. Hence det A must be a nonzero
    half-integer. det A and A^-1 are computed once, here, for the
    per-point reductions and membership tests.
    """

    A: Mat
    planar_det: Fraction = field(init=False, repr=False, compare=False)
    A_inv: Mat = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = _planar_matrix(self.A, "lattice")
        d = det(A)
        if d == 0 or (2 * d).denominator != 1:
            raise InvalidInput(
                f"determinant {d} is not a nonzero half-integer")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "planar_det", d)
        object.__setattr__(self, "A_inv", mat_inv(A))

    @classmethod
    def standard(cls) -> "HeisLattice":
        """The integer points."""
        return cls(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))

    def element(self, n1: int, n2: int, n3: int) -> HeisPoint:
        """Y1^n1 Y2^n2 X3^n3 where Y_i are the planar generators."""
        x = mat_vec(self.A, (Fraction(n1), Fraction(n2)))
        return HeisPoint(x[0], x[1], n1 * n2 * self.planar_det + n3)

    def exponents(self, g: HeisPoint) -> Optional[tuple[int, int, int]]:
        """Inverse of element(), or None when g is not in the lattice."""
        t = mat_vec(self.A_inv, (g.x1, g.x2))
        if any(x.denominator != 1 for x in t):
            return None
        n1, n2 = int(t[0]), int(t[1])
        n3 = g.c - n1 * n2 * self.planar_det
        if n3.denominator != 1:
            return None
        return (n1, n2, int(n3))

    def contains(self, g: HeisPoint) -> bool:
        return self.exponents(g) is not None

    def generators(self) -> tuple[HeisPoint, HeisPoint, HeisPoint]:
        return (self.element(1, 0, 0), self.element(0, 1, 0), self.element(0, 0, 1))


def malcev_lattice_check(A) -> bool:
    """Whether the planar data generates a lattice: det A must be a
    nonzero half-integer. On success the closure is re-verified on the
    generators (pairwise products, inverses, and the commutator, which
    equals (0, 0, 2 det A)); these checks are part of the verdict, so
    they also run under `python -O`."""
    A = _planar_matrix(A, "lattice")
    try:
        L = HeisLattice(A)
    except InvalidInput:  # A is 2x2, so det A is no nonzero half-integer
        return False
    gens = list(L.generators())
    probes = gens + [heis_inv(g) for g in gens]
    for g in probes:
        for h in probes:
            if not L.contains(heis_mul(g, h)):
                return False
    y1, y2 = gens[0], gens[1]
    comm = heis_mul(heis_mul(y1, y2), heis_inv(heis_mul(y2, y1)))
    return comm == HeisPoint(0, 0, 2 * L.planar_det) and L.contains(comm)


def lattice_covolume(L: HeisLattice) -> Fraction:
    """Measure of the reduction cell: |det A| (the cell is the affine
    image of the unit cube under a map of planar block A and unit central
    scale, and Haar measure is Lebesgue measure)."""
    return abs(L.planar_det)


def aut_image_lattice(alpha: HeisAut, L: HeisLattice) -> HeisLattice:
    """The image lattice alpha(L); its planar data is alpha.A @ L.A and
    the central parts are unchanged (det is preserved, so the image's
    element formula matches the pointwise image)."""
    return HeisLattice(mat_mul(alpha.A, L.A))


@dataclass(frozen=True)
class Reduction:
    """g = gamma * omega (left) or g = omega * gamma (right), with omega
    in the half-open cell and gamma = Y1^n1 Y2^n2 X3^n3."""

    gamma: HeisPoint
    exponents: tuple[int, int, int]
    omega: HeisPoint


def cell_contains(L: HeisLattice, g: HeisPoint) -> bool:
    """The reduction cell { (A t', t3) : t in [0,1)^3 }, half-open."""
    t = mat_vec(L.A_inv, (g.x1, g.x2))
    return all(0 <= x < 1 for x in t) and 0 <= g.c < 1


def cell_bbox(L: HeisLattice) -> Box:
    lo = [sum(min(Fraction(0), L.A[i][j]) for j in range(2)) for i in range(2)]
    hi = [sum(max(Fraction(0), L.A[i][j]) for j in range(2)) for i in range(2)]
    return (
        (lo[0], hi[0]),
        (lo[1], hi[1]),
        (Fraction(0), Fraction(1)),
    )


def _cell_boundary(L: HeisLattice, g: HeisPoint) -> bool:
    t = mat_vec(L.A_inv, (g.x1, g.x2))
    coords = (t[0], t[1], g.c)
    return any(x == 0 or x == 1 for x in coords)


def _planar_split(L: HeisLattice, g: HeisPoint):
    """n = floor of the planar frame coordinates, plus the split x = p + q
    with p = A n the generator part and q the in-cell part."""
    t = mat_vec(L.A_inv, (g.x1, g.x2))
    n1, n2 = floor_frac(t[0]), floor_frac(t[1])
    p = mat_vec(L.A, (Fraction(n1), Fraction(n2)))
    q = (g.x1 - p[0], g.x2 - p[1])
    return n1, n2, p, q


def _residue(side: str, c: Fraction, p, q) -> Fraction:
    """Central residue s = c - p x q (left) or c + p x q (right) of a point
    with planar part p + q, once the generator part p is taken off on that
    side; n3 is then floor(s - n1 n2 det A)."""
    cross = p[0] * q[1] - p[1] * q[0]
    return c - cross if side == "left" else c + cross


def _quotient(side: str, g: HeisPoint, gamma: HeisPoint) -> HeisPoint:
    """gamma^-1 g on the left, g gamma^-1 on the right."""
    if side == "left":
        return heis_mul(heis_inv(gamma), g)
    return heis_mul(g, heis_inv(gamma))


def _reduce(g: HeisPoint, L: HeisLattice, side: str) -> Reduction:
    """The planar coordinates force n1, n2 by flooring; taking the planar
    part off leaves the central residue s, and n3 = floor(s - n1 n2 det A)
    puts the remainder in [0, 1). Existence and uniqueness of the
    decomposition is exactly this computation run forward and backward.
    Before return, omega is checked to lie in the cell and the product of
    gamma and omega, in the side's order, to give back g
    (ConstructionFailed otherwise)."""
    n1, n2, p, q = _planar_split(L, g)
    n3 = floor_frac(_residue(side, g.c, p, q) - n1 * n2 * L.planar_det)
    gamma = L.element(n1, n2, n3)
    omega = _quotient(side, g, gamma)
    product = heis_mul(gamma, omega) if side == "left" else heis_mul(omega, gamma)
    if not cell_contains(L, omega) or product != g:
        raise ConstructionFailed(
            "the reduction does not put the point into the cell",
            {"point": list(g.as_tuple()), "omega": list(omega.as_tuple())})
    return Reduction(gamma, (n1, n2, n3), omega)


def reduce_left(g: HeisPoint, L: HeisLattice) -> Reduction:
    """Unique gamma in L and omega in the cell with g = gamma * omega."""
    return _reduce(g, L, "left")


def reduce_right(g: HeisPoint, L: HeisLattice) -> Reduction:
    """Unique omega in the cell and gamma in L with g = omega * gamma."""
    return _reduce(g, L, "right")


@dataclass(frozen=True)
class CandidateDomain:
    """A candidate tiling set: exact membership plus a declared bounding
    box; the optional boundary predicate flags points that lie on the
    candidate's defining faces (such samples are resampled)."""

    contains: Callable[[HeisPoint], bool]
    bbox: Box
    boundary: Optional[Callable[[HeisPoint], bool]] = None


def malcev_cell(L: HeisLattice) -> CandidateDomain:
    return CandidateDomain(
        contains=lambda g: cell_contains(L, g),
        bbox=cell_bbox(L),
        boundary=lambda g: _cell_boundary(L, g),
    )


def psi_cell() -> CandidateDomain:
    """The heis_exp image of the unit cube; membership via the inverse
    chart t3 = c - 2 x1 x2."""

    def inside(g: HeisPoint) -> bool:
        t3 = g.c - 2 * g.x1 * g.x2
        return 0 <= g.x1 < 1 and 0 <= g.x2 < 1 and 0 <= t3 < 1

    def on_face(g: HeisPoint) -> bool:
        t3 = g.c - 2 * g.x1 * g.x2
        return any(x == 0 or x == 1 for x in (g.x1, g.x2, t3))

    return CandidateDomain(
        contains=inside,
        bbox=((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)),
              (Fraction(0), Fraction(3))),
        boundary=on_face,
    )


@dataclass(frozen=True)
class HeisAction:
    side: str
    lattice: HeisLattice

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise InvalidInput("side must be 'left' or 'right'")


@dataclass(frozen=True)
class MCReport:
    histogram: dict[int, int]
    samples: int
    seed: int
    resampled: int

    def all_multiplicity_one(self) -> bool:
        return self.histogram == {1: self.samples}


def _count_translates(
    z: HeisPoint, candidate: CandidateDomain, action: HeisAction
) -> tuple[int, bool]:
    """Exact multiplicity of z among the translates of the candidate.

    Only finitely many gamma can carry z into the bounding box: the
    planar part pins n1, n2 to an interval box (via the inverse planar
    data), and for each planar choice the central box interval pins n3
    through the same residue as the reductions. Every surviving gamma is
    tested by exact membership.
    """
    L = action.lattice
    side = action.side
    (blo1, bhi1), (blo2, bhi2), (blo3, bhi3) = candidate.bbox
    r1, r2 = integer_ranges(L.A_inv, (z.x1 - bhi1, z.x2 - bhi2), (z.x1 - blo1, z.x2 - blo2))
    count = 0
    tainted = False
    for n1 in r1:
        for n2 in r2:
            p = mat_vec(L.A, (Fraction(n1), Fraction(n2)))
            q = (z.x1 - p[0], z.x2 - p[1])
            # gamma = L.element(n1, n2, n3) = (p, c0 + n3), built from p here
            c0 = n1 * n2 * L.planar_det
            e = _residue(side, z.c, p, q) - c0
            for n3 in range(ceil(e - bhi3), floor_frac(e - blo3) + 1):
                w = _quotient(side, z, HeisPoint(p[0], p[1], c0 + n3))
                if candidate.boundary is not None and candidate.boundary(w):
                    tainted = True
                if candidate.contains(w):
                    count += 1
    return count, tainted


def mc_verify_tiling(
    candidate: CandidateDomain,
    action: HeisAction,
    window: Box,
    samples: int,
    seed: int,
) -> MCReport:
    """Seeded multiplicity histogram of sampled points over the translate
    family. Tiling evidence is histogram == {1: samples}; a packing shows
    only multiplicities 0 and 1.

    The window must contain the candidate's bounding box, so the samples
    probe the candidate region itself and not just empty space. Samples
    whose translates land on the candidate's boundary faces are
    resampled (bounded retries), keeping the histogram seed-determined.
    """
    if samples <= 0:
        raise InvalidInput("samples must be positive")
    for (wlo, whi), (blo, bhi) in zip(window, candidate.bbox):
        if wlo > blo or whi < bhi:
            raise WindowTooSmall(
                "window must contain the candidate's bounding box")
    sampler = DyadicSampler(seed)
    hist: dict[int, int] = {}
    produced = 0
    resampled = 0
    budget = 64 * samples
    while produced < samples:
        z = HeisPoint(*sampler.in_box(window))
        count, tainted = _count_translates(z, candidate, action)
        if tainted and resampled < budget:
            resampled += 1
            continue
        hist[count] = hist.get(count, 0) + 1
        produced += 1
    return MCReport(
        histogram=dict(sorted(hist.items())),
        samples=samples,
        seed=seed,
        resampled=resampled,
    )


def psi_image_domain_check(samples: int = 10000, seed: int = 0) -> bool:
    """Monte Carlo confirmation that the heis_exp image of the unit cube
    tiles under the right action of the integer points."""
    cand = psi_cell()
    rep = mc_verify_tiling(
        cand,
        HeisAction("right", HeisLattice.standard()),
        window=cand.bbox,
        samples=samples,
        seed=seed,
    )
    return rep.all_multiplicity_one()


def discrete_ball_growth(n_max: int, limit: int = 30) -> list[int]:
    """Sizes of word-metric balls |B_0|..|B_n| of the integer points with
    generators (±1,0,0), (0,±1,0), by breadth-first search."""
    if n_max < 0:
        raise InvalidInput("n_max must be nonnegative")
    if n_max > limit:
        raise TooLarge(f"n_max {n_max} exceeds the bound {limit}")
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


def growth_exponent_estimate(sizes: list[int]) -> float:
    """Least-squares slope of log |B_n| against log n over the upper half
    of the radius range."""
    n_max = len(sizes) - 1
    ns = [n for n in range(max(1, n_max // 2), n_max + 1)]
    if len(ns) < 2:
        raise InvalidInput("need at least two radii to estimate a slope")
    xs = [log(n) for n in ns]
    ys = [log(sizes[n]) for n in ns]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
