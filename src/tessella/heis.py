"""Exact arithmetic on the rational points of the Heisenberg group.

The group is R^2 x R with product (x,c)(y,d) = (x+y, c+d+x1 y2 - x2 y1);
Haar measure is Lebesgue measure in these coordinates. Everything here is
rational and exact: the group law, two exponential charts, the
determinant-one planar automorphisms, lattices given by planar generator
data, constructive reduction to a half-open cell, seeded Monte Carlo
tiling verification, and word-metric ball growth of the integer points.

A lattice acts on the left (g -> gamma g) or on the right (g -> g gamma),
by one code path: the side only flips the sign of the central cross term
(`_residue`) and the order of the products.

The per-point kernels (cell reductions, lattice membership, the cell and
psi predicates, and the Monte Carlo translate count) run on Python ints:
a point is put on one scale S that is a multiple of the lattice's
denominator lcm a and of its own denominators, as the integer triple
(S x, S^2 c), and the frame coordinates A^-1 x are integer numerators
over one denominator, read from the lattice's integer form
(`linalg.IntBasis`). The predicates of `malcev_cell` and `psi_cell`
carry their integer form (`on_scale`), so the Monte Carlo count tests
every translate on its sample's scale without leaving ints. Fractions
appear only at the edges: the points a caller passes in, the sampler's
draws (each one Fraction of ints), the HeisPoints handed to a predicate
that has no integer form, and the returned Reduction and MCReport.

Ball growth needs no search. The sphere sizes of the integer points in
the word metric of (±1,0,0), (0,±1,0) have a rational generating
function with denominator (1-z)^4 (1+z^2) (1+z+z^2) (Shapiro, Math.
Ann. 1989; Duchin-Shapiro, "The Heisenberg group is pan-rational", Adv.
Math. 2019). So `discrete_ball_growth` runs that denominator's linear
recurrence on Python ints from the first nine sphere sizes, and sums the
spheres into balls: O(n) additions in place of a breadth-first search
over the ball's Theta(n^4) points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import lcm, log, prod
from typing import Callable, Optional

from .boxes import Box
from .errors import (
    ConstructionFailed,
    InvalidInput,
    NotMeasurePreserving,
    TooLarge,
    WindowTooSmall,
)
from .linalg import IntBasis, Mat, det, frac, integer_form, interval_image, mat, mat_mul, mat_vec
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
    half-integer. The per-point kernels read A's integer form `form`,
    computed once here: A^-1 = form.scale form.adj_int / form.det_int.
    """

    A: Mat
    planar_det: Fraction = field(init=False, repr=False, compare=False)
    form: IntBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = _planar_matrix(self.A, "lattice")
        form = IntBasis.of(A)
        d = Fraction(0) if form is None else form.det
        if d == 0 or (2 * d).denominator != 1:
            raise InvalidInput(
                f"determinant {d} is not a nonzero half-integer")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "planar_det", d)
        object.__setattr__(self, "form", form)

    @classmethod
    def standard(cls) -> "HeisLattice":
        """The integer points."""
        return cls(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))

    def element(self, n1: int, n2: int, n3: int) -> HeisPoint:
        """Y1^n1 Y2^n2 X3^n3 where Y_i are the planar generators."""
        return _unscaled(self.form.scale, _generator(self, self.form.scale, n1, n2, n3))

    def exponents(self, g: HeisPoint) -> Optional[tuple[int, int, int]]:
        """Inverse of element(), or None when g is not in the lattice."""
        S, (X0, X1, C) = _scaled(self.form.scale, g.as_tuple())
        N0, N1, D = _frame(self, X0, X1, S)
        if N0 % D or N1 % D:
            return None
        n1, n2 = N0 // D, N1 // D
        n3, rest = divmod(C - _generator(self, S, n1, n2)[2], S * S)
        return None if rest else (n1, n2, n3)

    def contains(self, g: HeisPoint) -> bool:
        return self.exponents(g) is not None

    def generators(self) -> tuple[HeisPoint, HeisPoint, HeisPoint]:
        return (self.element(1, 0, 0), self.element(0, 1, 0), self.element(0, 0, 1))


# The per-point kernels run on one integer scale per point: with S a
# multiple of a and of the point's denominators, (x, c) is the integer
# triple (S x, S^2 c). On triples of one scale the group law is heis_mul's
# formula unchanged, because the cross term of two S-scaled planar parts
# carries S^2.


def _scaled(a: int, g) -> tuple[int, tuple[int, int, int]]:
    """(S, (S x1, S x2, S^2 c)) for g = (x1, x2, c), with
    S = lcm(a, den x1, den x2, den c); a is a lattice's denominator lcm,
    or 1 for a predicate's integer form, which is exact on any scale."""
    x1, x2, c = g
    S = lcm(a, x1.denominator, x2.denominator, c.denominator)
    return S, (x1.numerator * (S // x1.denominator),
               x2.numerator * (S // x2.denominator),
               c.numerator * (S * S // c.denominator))


def _unscaled(S: int, v: tuple[int, int, int]) -> HeisPoint:
    # the coordinates are Fractions already, so HeisPoint's coercion of
    # its fields is skipped
    g = object.__new__(HeisPoint)
    g.__dict__.update(x1=Fraction(v[0], S), x2=Fraction(v[1], S), c=Fraction(v[2], S * S))
    return g


def _mul_scaled(g: tuple[int, int, int], h: tuple[int, int, int]) -> tuple[int, int, int]:
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1] - g[1] * h[0])


def _frame(L: HeisLattice, X0: int, X1: int, S: int) -> tuple[int, int, int]:
    """Frame coordinates t = A^-1 X / S as integer numerators (N0, N1)
    over one positive denominator D: t = a adj_int X / (det_int S)."""
    (p, q), (r, s) = L.form.adj_int
    a, D = L.form.scale, L.form.det_int * S
    if D < 0:
        a, D = -a, -D
    return a * (p * X0 + q * X1), a * (r * X0 + s * X1), D


def _generator(L: HeisLattice, S: int, n1: int, n2: int, n3: int = 0) -> tuple[int, int, int]:
    """Y1^n1 Y2^n2 X3^n3 on scale S: (S A n, S^2 (n1 n2 det A + n3)),
    with S A = (S / a) form.rows."""
    k = S // L.form.scale
    (p, q), (r, s) = L.form.rows
    return (k * (p * n1 + q * n2), k * (r * n1 + s * n2),
            k * k * n1 * n2 * L.form.det_int + n3 * S * S)


def _in_cell(L: HeisLattice, S: int, v: tuple[int, int, int]) -> bool:
    N0, N1, D = _frame(L, v[0], v[1], S)
    return 0 <= N0 < D and 0 <= N1 < D and 0 <= v[2] < S * S


def _on_cell_face(L: HeisLattice, S: int, v: tuple[int, int, int]) -> bool:
    N0, N1, D = _frame(L, v[0], v[1], S)
    return N0 in (0, D) or N1 in (0, D) or v[2] in (0, S * S)


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
    return _in_cell(L, *_scaled(L.form.scale, g.as_tuple()))


def cell_bbox(L: HeisLattice) -> Box:
    """The planar interval box of A [0,1]^2, times the central [0, 1]."""
    lo, hi = interval_image(L.A, (Fraction(0),) * 2, (Fraction(1),) * 2)
    return tuple(zip(lo, hi)) + ((Fraction(0), Fraction(1)),)


def _planar_split(L: HeisLattice, z: tuple[int, tuple[int, int, int]]):
    """n = floor of the planar frame coordinates of the scaled point
    z = (S, (X0, X1, C)), plus the split X = P + Q with P = S A n the
    generator part and Q the in-cell part."""
    S, (X0, X1, _) = z
    N0, N1, D = _frame(L, X0, X1, S)
    n1, n2 = N0 // D, N1 // D
    P = _generator(L, S, n1, n2)[:2]
    return n1, n2, P, (X0 - P[0], X1 - P[1])


def _residue(side: str, C: int, P, Q) -> int:
    """Central residue C - P x Q (left) or C + P x Q (right) of a point
    with planar part P + Q, once the generator part P is taken off on that
    side; n3 is then floor((residue - S^2 n1 n2 det A) / S^2)."""
    cross = P[0] * Q[1] - P[1] * Q[0]
    return C - cross if side == "left" else C + cross


def _reduce(g: HeisPoint, L: HeisLattice, side: str) -> Reduction:
    """The planar coordinates force n1, n2 by flooring; taking the planar
    part off leaves the central residue s, and n3 = floor(s - n1 n2 det A)
    puts the remainder in [0, 1). Existence and uniqueness of the
    decomposition is exactly this computation run forward and backward.

    Everything runs on the integer triples of g's scale (`_scaled`).
    Before return, gamma is rebuilt from the exponents, and omega =
    gamma^-1 g (left) or g gamma^-1 (right) is checked to lie in the cell
    and to give back g as the product in the side's order
    (ConstructionFailed otherwise). The check covers the integer
    computation, not the exact division back to the returned Fractions;
    the tests pin that against an all-Fraction reference."""
    z = _scaled(L.form.scale, g.as_tuple())
    S, point = z
    n1, n2, P, Q = _planar_split(L, z)
    n3 = (_residue(side, point[2], P, Q) - _generator(L, S, n1, n2)[2]) // (S * S)
    gamma = _generator(L, S, n1, n2, n3)
    inv = (-gamma[0], -gamma[1], -gamma[2])
    if side == "left":
        omega = _mul_scaled(inv, point)
        product = _mul_scaled(gamma, omega)
    else:
        omega = _mul_scaled(point, inv)
        product = _mul_scaled(omega, gamma)
    if not _in_cell(L, S, omega) or product != point:
        raise ConstructionFailed(
            "the reduction does not put the point into the cell",
            {"point": list(g.as_tuple()), "omega": list(_unscaled(S, omega).as_tuple())})
    return Reduction(_unscaled(S, gamma), (n1, n2, n3), _unscaled(S, omega))


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


class _OnScale:
    """A point predicate with an integer form: on_scale(S, (X0, X1, C))
    decides the point (X0 / S, X1 / S, C / S^2) for any positive S.
    Called on a HeisPoint, it puts the point on its own scale (`_scaled`)
    and runs that same form; the Monte Carlo count calls the form on the
    scale of its sample."""

    __slots__ = ("on_scale",)

    def __init__(self, on_scale: Callable[[int, tuple[int, int, int]], bool]):
        self.on_scale = on_scale

    def __call__(self, g: HeisPoint) -> bool:
        return self.on_scale(*_scaled(1, g.as_tuple()))


def _scaled_test(predicate: Callable[[HeisPoint], bool]):
    """The predicate as a test of (S, (X0, X1, C)): its own integer form,
    or else the test of that point built as a HeisPoint."""
    if isinstance(predicate, _OnScale):
        return predicate.on_scale
    return lambda S, v: predicate(_unscaled(S, v))


def malcev_cell(L: HeisLattice) -> CandidateDomain:
    """The reduction cell of L. Its predicates read the frame coordinates
    `_frame`, which are exact on any scale, so they also decide the
    translates of samples put on the scale of another lattice."""
    return CandidateDomain(
        contains=_OnScale(partial(_in_cell, L)),
        bbox=cell_bbox(L),
        boundary=_OnScale(partial(_on_cell_face, L)),
    )


def _in_psi(S: int, v: tuple[int, int, int]) -> bool:
    # t3 = c - 2 x1 x2 is (C - 2 X0 X1) / S^2
    X0, X1, C = v
    return 0 <= X0 < S and 0 <= X1 < S and 0 <= C - 2 * X0 * X1 < S * S


def _on_psi_face(S: int, v: tuple[int, int, int]) -> bool:
    X0, X1, C = v
    return X0 in (0, S) or X1 in (0, S) or C - 2 * X0 * X1 in (0, S * S)


def psi_cell() -> CandidateDomain:
    """The heis_exp image of the unit cube; membership via the inverse
    chart t3 = c - 2 x1 x2."""
    return CandidateDomain(
        contains=_OnScale(_in_psi),
        bbox=((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)),
              (Fraction(0), Fraction(3))),
        boundary=_OnScale(_on_psi_face),
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


# Translate tests per request: samples times the per-sample bound of
# `_translate_counter`. Five times the largest request in the tests,
# demos and benchmark (10 000 samples of the psi cell against the integer
# points, 16 tests a sample); see the README for the time it takes.
MAX_TRANSLATE_TESTS = 800_000


def _translate_counter(candidate: CandidateDomain, action: HeisAction):
    """(bound, count): count(z) is the exact multiplicity of the sample
    z = (x1, x2, c) among the translates of the candidate, with a flag for
    a translate on the candidate's boundary; bound is the number of
    translates it tests at most.

    Only finitely many gamma can carry z into the bounding box B: the
    planar exponents n of gamma lie in A^-1 (x - B) = t - A^-1 B with
    t = A^-1 x, and A^-1 B lies in an interval box [lo, hi] fixed per
    call (`linalg.interval_image`), so n_i ranges over the integers of
    [t_i - hi_i, t_i - lo_i]. For each planar choice the central box
    interval pins n3 through the same residue as the reductions. Each
    sample is put on one scale S (`_scaled`); the ranges, the residue and
    the translate are computed in ints, and every surviving translate is
    tested on that scale by each predicate's integer form
    (`_scaled_test`): a predicate without one gets the translate as a
    HeisPoint.
    """
    L, side = action.lattice, action.side
    (blo1, bhi1), (blo2, bhi2), (blo3, bhi3) = candidate.bbox
    lo, hi = interval_image(L.form.inverse(), (blo1, blo2), (bhi1, bhi2))
    # the planar intervals and the central box interval over one denominator H
    H, ((lo1, lo2, lo3), (hi1, hi2, hi3)) = integer_form((lo + [blo3], hi + [bhi3]))
    bound = prod((h - l) // H + 1 for l, h in ((lo1, hi1), (lo2, hi2), (lo3, hi3)))
    on_face = None if candidate.boundary is None else _scaled_test(candidate.boundary)
    inside = _scaled_test(candidate.contains)

    def count(z) -> tuple[int, bool]:
        S, (X0, X1, C) = _scaled(L.form.scale, z)
        S2 = S * S
        N0, N1, D = _frame(L, X0, X1, S)
        DH, S2H = D * H, S2 * H
        n = 0
        tainted = False
        # n_i from ceil(t_i - hi_i) to floor(t_i - lo_i), t_i = N_i / D
        for n1 in range(-((hi1 * D - N0 * H) // DH), (N0 * H - lo1 * D) // DH + 1):
            for n2 in range(-((hi2 * D - N1 * H) // DH), (N1 * H - lo2 * D) // DH + 1):
                G = _generator(L, S, n1, n2)
                Q0, Q1 = X0 - G[0], X1 - G[1]
                e = _residue(side, C, G, (Q0, Q1)) - G[2]
                for n3 in range(-((hi3 * S2 - e * H) // S2H), (e * H - lo3 * S2) // S2H + 1):
                    w = (Q0, Q1, e - n3 * S2)
                    if on_face is not None and on_face(S, w):
                        tainted = True
                    if inside(S, w):
                        n += 1
        return n, tainted

    return bound, count


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

    The window must be 3 intervals containing the candidate's bounding
    box, so the samples probe the candidate region itself and not just
    empty space. Samples whose translates land on the candidate's
    boundary faces are resampled, keeping the histogram seed-determined.
    A request whose samples would test more than MAX_TRANSLATE_TESTS
    translates (samples times the per-sample bound) raises TooLarge before
    the first draw; resampled draws are capped then at 64 per sample or at
    what the budget leaves after the samples, whichever is less.
    """
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise InvalidInput("samples must be an integer")
    if samples <= 0:
        raise InvalidInput("samples must be positive")
    try:
        window = tuple((frac(lo), frac(hi)) for lo, hi in window)
    except (TypeError, ValueError):
        window = None
    if window is None or len(window) != 3:
        raise InvalidInput("window must be 3 intervals (lo, hi)")
    for (wlo, whi), (blo, bhi) in zip(window, candidate.bbox):
        if wlo > blo or whi < bhi:
            raise WindowTooSmall(
                "window must contain the candidate's bounding box")
    bound, count_translates = _translate_counter(candidate, action)
    if samples * bound > MAX_TRANSLATE_TESTS:
        raise TooLarge(
            f"{samples} samples of up to {bound} translate tests each exceed "
            f"the budget of {MAX_TRANSLATE_TESTS}")
    sampler = DyadicSampler(seed)
    hist: dict[int, int] = {}
    produced = 0
    resampled = 0
    budget = min(64 * samples, MAX_TRANSLATE_TESTS // bound - samples)
    while produced < samples:
        count, tainted = count_translates(sampler.in_box(window))
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


# The first sphere sizes s_0..s_8 and the recurrence that continues them:
# the coefficients of the growth series' denominator
# (1-z)^4 (1+z^2) (1+z+z^2) = 1 - 3z + 4z^2 - 5z^3 + 6z^4 - 5z^5 + 4z^6 - 3z^7 + z^8.
_SPHERE_START = (1, 4, 12, 36, 82, 164, 294, 476, 724)
_SPHERE_RECURRENCE = (3, -4, 5, -6, 5, -4, 3, -1)


def discrete_ball_growth(n_max: int, limit: int = 30) -> list[int]:
    """Sizes of word-metric balls |B_0|..|B_n| of the integer points with
    generators (±1,0,0), (0,±1,0), in closed form.

    The sphere sizes s_n have a rational generating function with
    denominator (1-z)^4 (1+z^2) (1+z+z^2) (Shapiro, "A geometric approach
    to the almost convexity and growth of some nilpotent groups", Math.
    Ann. 285, 1989). So from s_0..s_8 = 1, 4, 12, 36, 82, 164, 294, 476,
    724 on,
        s_n = 3s_{n-1} - 4s_{n-2} + 5s_{n-3} - 6s_{n-4}
              + 5s_{n-5} - 4s_{n-6} + 3s_{n-7} - s_{n-8}   (n >= 9),
    and |B_n| is the running sum s_0 + ... + s_n."""
    if n_max < 0:
        raise InvalidInput("n_max must be nonnegative")
    if n_max > limit:
        raise TooLarge(f"n_max {n_max} exceeds the bound {limit}")
    spheres = list(_SPHERE_START[:n_max + 1])
    while len(spheres) <= n_max:
        spheres.append(sum(a * s for a, s in zip(_SPHERE_RECURRENCE, reversed(spheres[-8:]))))
    return list(accumulate(spheres))


def growth_exponent_estimate(sizes: list[int]) -> float:
    """Least-squares slope of log |B_n| against log n over the upper half
    of the radius range."""
    n_max = len(sizes) - 1
    ns = [n for n in range(max(1, n_max // 2), n_max + 1)]
    if len(ns) < 2:
        raise InvalidInput("need at least two radii to estimate a slope")
    xs = [log(n) for n in ns]
    ys = [log(sizes[n]) for n in ns]
    mx = _float_sum(xs) / len(xs)
    my = _float_sum(ys) / len(ys)
    num = _float_sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = _float_sum((x - mx) ** 2 for x in xs)
    return num / den


def _float_sum(xs) -> float:
    """Plain left-to-right sum. The builtin sum() compensates rounding
    since Python 3.12, so it would print a different last digit of the
    estimate on different supported versions."""
    total = 0.0
    for x in xs:
        total += x
    return total
