import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from tessella import heis
from tessella.errors import (
    InvalidInput,
    NotMeasurePreserving,
    TooLarge,
    WindowTooSmall,
)
from tessella.linalg import mat_vec
from tessella.sampling import DyadicSampler
from tessella.heis import (
    HEIS_IDENTITY,
    CandidateDomain,
    HeisAction,
    HeisAut,
    HeisLattice,
    HeisPoint,
    LieVec,
    aut_apply,
    aut_compose,
    aut_dilation,
    aut_image_lattice,
    aut_is_homomorphism_check,
    aut_shear_lower,
    aut_shear_upper,
    cbh_identity_check,
    cell_contains,
    discrete_ball_growth,
    flow_exp,
    growth_exponent_estimate,
    heis_exp,
    heis_inv,
    heis_log,
    heis_mul,
    lattice_covolume,
    lie_bracket,
    malcev_cell,
    malcev_lattice_check,
    mc_verify_tiling,
    psi_cell,
    psi_image_domain_check,
    reduce_left,
    reduce_right,
)

import oracles


def rand_point(rng, span=4, den=6):
    return HeisPoint(
        Fraction(rng.randint(-span * den, span * den), den),
        Fraction(rng.randint(-span * den, span * den), den),
        Fraction(rng.randint(-span * den, span * den), den),
    )


# ------------------------------------------------------------- group law


def test_product_and_inverse_frozen():
    g = HeisPoint(1, 2, 0)
    h = HeisPoint(3, -1, 1)
    assert heis_mul(g, h) == HeisPoint(4, 1, 0 + 1 + (1 * -1 - 2 * 3))
    assert heis_mul(g, heis_inv(g)) == HEIS_IDENTITY
    assert heis_mul(heis_inv(g), g) == HEIS_IDENTITY
    assert heis_mul(g, HEIS_IDENTITY) == g


def test_product_matches_matrix_model():
    rng = random.Random(67)
    for _ in range(40):
        g, h = rand_point(rng), rand_point(rng)
        got = heis_mul(g, h)
        want = oracles.heis_mul_via_matrices(g.as_tuple(), h.as_tuple())
        assert got.as_tuple() == want
        assert heis_inv(g).as_tuple() == \
            oracles.heis_inv_via_matrices(g.as_tuple())


def test_associativity_random():
    rng = random.Random(71)
    for _ in range(40):
        g, h, k = rand_point(rng), rand_point(rng), rand_point(rng)
        assert heis_mul(heis_mul(g, h), k) == heis_mul(g, heis_mul(h, k))


def test_noncommutativity_measured_by_center():
    g = HeisPoint(1, 0, 0)
    h = HeisPoint(0, 1, 0)
    gh = heis_mul(g, h)
    hg = heis_mul(h, g)
    assert gh != hg
    assert (gh.x1, gh.x2) == (hg.x1, hg.x2)
    assert gh.c - hg.c == 2


# ----------------------------------------------------------- exponentials


def test_cube_chart_frozen_values():
    assert heis_exp(LieVec(1, 1, 0)) == HeisPoint(1, 1, 2)
    assert heis_exp(LieVec("1/2", "1/3", "1/4")) == \
        HeisPoint("1/2", "1/3", Fraction(1, 4) + Fraction(1, 3))


def test_cube_chart_log_roundtrip():
    rng = random.Random(73)
    for _ in range(40):
        g = rand_point(rng)
        assert heis_exp(heis_log(g)) == g
        v = LieVec(*rand_point(rng).as_tuple())
        assert heis_log(heis_exp(v)) == v


def test_flow_chart_gives_one_parameter_subgroups():
    rng = random.Random(79)
    for _ in range(25):
        v = LieVec(*rand_point(rng).as_tuple())
        s, t = Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2)
        vs = LieVec(s * v.u1, s * v.u2, s * v.u3)
        vt = LieVec(t * v.u1, t * v.u2, t * v.u3)
        vst = LieVec((s + t) * v.u1, (s + t) * v.u2, (s + t) * v.u3)
        assert heis_mul(flow_exp(vs), flow_exp(vt)) == flow_exp(vst)


def test_cube_chart_is_not_the_flow_chart():
    v = LieVec(1, 1, 0)
    assert heis_exp(v) != flow_exp(v)
    # and scaling does not thread through products in the cube chart
    v2 = LieVec(2, 2, 0)
    assert heis_mul(heis_exp(v), heis_exp(v)) != heis_exp(v2)


def test_product_formula_for_flow_chart():
    assert cbh_identity_check(LieVec(1, 0, 0), LieVec(0, 1, 0))
    rng = random.Random(83)
    for _ in range(60):
        v = LieVec(*rand_point(rng).as_tuple())
        w = LieVec(*rand_point(rng).as_tuple())
        assert cbh_identity_check(v, w)


def test_bracket_matches_group_commutator():
    rng = random.Random(89)
    for _ in range(25):
        v = LieVec(*rand_point(rng).as_tuple())
        w = LieVec(*rand_point(rng).as_tuple())
        g, h = flow_exp(v), flow_exp(w)
        comm = heis_mul(heis_mul(g, h), heis_mul(heis_inv(g), heis_inv(h)))
        assert comm == flow_exp(lie_bracket(v, w))


# ----------------------------------------------------------- automorphisms


def test_dilation_and_shears():
    d = aut_dilation(3)
    assert aut_apply(d, HeisPoint(1, 1, 5)) == HeisPoint(3, Fraction(1, 3), 5)
    up = aut_shear_upper(2)
    assert aut_apply(up, HeisPoint(1, 1, 5)) == HeisPoint(3, 1, 5)
    low = aut_shear_lower("1/2")
    assert aut_apply(low, HeisPoint(2, 0, 5)) == HeisPoint(2, 1, 5)


def test_automorphisms_respect_product():
    rng = random.Random(97)
    auts = [aut_dilation(Fraction(3, 2)), aut_shear_upper(-2),
            aut_shear_lower("5/3"),
            aut_compose(aut_dilation(2), aut_shear_upper(1))]
    for alpha in auts:
        for _ in range(15):
            g, h = rand_point(rng), rand_point(rng)
            assert aut_apply(alpha, heis_mul(g, h)) == \
                heis_mul(aut_apply(alpha, g), aut_apply(alpha, h))


def test_non_unit_determinant_rejected():
    with pytest.raises(NotMeasurePreserving):
        HeisAut(((2, 0), (0, 1)))
    with pytest.raises(NotMeasurePreserving):
        HeisAut(((1, 0), (0, -1)))


def test_homomorphism_probe_detects_determinant():
    assert aut_is_homomorphism_check(((1, 1), (1, 2)))
    assert not aut_is_homomorphism_check(((2, 0), (0, 1)))
    assert not aut_is_homomorphism_check(((1, 0), (0, -1)))


def test_compose_is_matrix_product():
    a = aut_shear_upper(1)
    b = aut_shear_lower(1)
    ab = aut_compose(a, b)
    g = HeisPoint("1/2", "1/3", 1)
    assert aut_apply(ab, g) == aut_apply(a, aut_apply(b, g))


# ----------------------------------------------------------------- lattices


def test_lattice_validity_criterion():
    assert malcev_lattice_check(((1, 0), (0, 1)))
    assert malcev_lattice_check(((1, 0), (0, "1/2")))
    assert not malcev_lattice_check(((1, 0), (0, "1/3")))
    assert not malcev_lattice_check(((1, 2), (2, 4)))
    with pytest.raises(InvalidInput):
        malcev_lattice_check(((1, 0, 0), (0, 1, 0)))


def test_lattice_check_refuses_a_wrong_commutator(monkeypatch):
    # a product that adds 1 to every central part keeps each probe product
    # in the lattice but moves the commutator to (0, 0, 2 det A + 1); the
    # check must say False, not raise AssertionError (gone under python -O)
    def shifted_mul(g, h):
        x1, x2, c = heis_mul(g, h).as_tuple()
        return HeisPoint(x1, x2, c + 1)

    monkeypatch.setattr(heis, "heis_mul", shifted_mul)
    assert malcev_lattice_check(((1, 0), (0, 1))) is False
    assert malcev_lattice_check(((1, 0), (0, "1/2"))) is False


def test_invalid_planar_data_rejected_on_construction():
    with pytest.raises(InvalidInput):
        HeisLattice(((1, 0), (0, "1/3")))
    with pytest.raises(InvalidInput):
        HeisLattice(((1, 2), (2, 4)))


def test_element_exponents_roundtrip():
    rng = random.Random(101)
    for A in (((1, 0), (0, 1)), ((1, 0), (0, "1/2")), ((2, 1), (1, 1))):
        L = HeisLattice(A)
        for _ in range(25):
            n = tuple(rng.randint(-5, 5) for _ in range(3))
            g = L.element(*n)
            assert L.exponents(g) == n
            assert L.contains(g)
        assert not L.contains(HeisPoint("1/3", 0, 0))


def test_lattice_closed_under_product():
    rng = random.Random(103)
    L = HeisLattice(((1, 0), (0, "1/2")))
    for _ in range(30):
        g = L.element(*(rng.randint(-4, 4) for _ in range(3)))
        h = L.element(*(rng.randint(-4, 4) for _ in range(3)))
        assert L.contains(heis_mul(g, h))
        assert L.contains(heis_inv(g))


def test_covolumes():
    assert lattice_covolume(HeisLattice.standard()) == 1
    assert lattice_covolume(HeisLattice(((1, 0), (0, "1/2")))) == Fraction(1, 2)
    assert lattice_covolume(HeisLattice(((2, 1), (1, 1)))) == 1


def test_automorphism_images_keep_covolume():
    rng = random.Random(107)
    L = HeisLattice(((1, 0), (0, "1/2")))
    for _ in range(50):
        alpha = aut_dilation(Fraction(rng.randint(1, 6), rng.randint(1, 6)))
        alpha = aut_compose(alpha, aut_shear_upper(rng.randint(-3, 3)))
        alpha = aut_compose(alpha, aut_shear_lower(rng.randint(-3, 3)))
        img = aut_image_lattice(alpha, L)
        assert lattice_covolume(img) == lattice_covolume(L)
        # pointwise image of generators lands in the image lattice
        for gen in L.generators():
            assert img.contains(aut_apply(alpha, gen))


# ---------------------------------------------------------------- reduction


def test_reduction_frozen_example():
    g = HeisPoint("3/2", "-1/4", "37/10")
    red = reduce_left(g, HeisLattice.standard())
    assert red.exponents == (1, -1, 3)
    assert red.gamma == HeisPoint(1, -1, 2)
    assert red.omega == HeisPoint("1/2", "3/4", "9/20")
    assert heis_mul(red.gamma, red.omega) == g


def test_reduction_right_side():
    g = HeisPoint("3/2", "-1/4", "37/10")
    red = reduce_right(g, HeisLattice.standard())
    assert heis_mul(red.omega, red.gamma) == g
    assert cell_contains(HeisLattice.standard(), red.omega)


def test_reduction_left_invariance():
    rng = random.Random(109)
    L = HeisLattice(((1, 0), (0, "1/2")))
    for _ in range(30):
        g = rand_point(rng)
        gamma = L.element(*(rng.randint(-3, 3) for _ in range(3)))
        a = reduce_left(g, L)
        b = reduce_left(heis_mul(gamma, g), L)
        assert a.omega == b.omega


def test_reduction_right_invariance():
    rng = random.Random(113)
    L = HeisLattice(((2, 1), (1, 1)))
    for _ in range(30):
        g = rand_point(rng)
        gamma = L.element(*(rng.randint(-3, 3) for _ in range(3)))
        a = reduce_right(g, L)
        b = reduce_right(heis_mul(g, gamma), L)
        assert a.omega == b.omega


def test_cell_point_is_unique_in_small_orbit():
    # brute scan over nearby lattice elements: exactly one carries g into
    # the cell, and it is the one the reduction found
    L = HeisLattice.standard()
    g = HeisPoint("3/2", "-1/4", "37/10")
    red = reduce_left(g, L)
    hits = []
    for n1 in range(-4, 5):
        for n2 in range(-4, 5):
            for n3 in range(-30, 31):
                gamma = L.element(n1, n2, n3)
                w = heis_mul(heis_inv(gamma), g)
                if cell_contains(L, w):
                    hits.append((n1, n2, n3))
    assert hits == [red.exponents]


# ------------------------------------------------------------ verification


def test_cell_histograms_are_all_ones():
    L = HeisLattice(((1, 0), (0, "1/2")))
    cand = malcev_cell(L)
    for side in ("left", "right"):
        rep = mc_verify_tiling(cand, HeisAction(side, L), cand.bbox,
                               samples=150, seed=5)
        assert rep.all_multiplicity_one()
        assert rep.histogram == {1: 150}


def test_doubled_cell_has_multiplicity_two():
    L = HeisLattice.standard()
    base = malcev_cell(L)
    (b1, b2, _) = base.bbox
    doubled = CandidateDomain(
        contains=lambda g: (0 <= g.x1 < 1 and 0 <= g.x2 < 1 and 0 <= g.c < 2),
        bbox=(b1, b2, (Fraction(0), Fraction(2))),
        boundary=lambda g: any(
            x == lim for x in (g.x1, g.x2) for lim in (0, 1)
        ) or g.c in (0, 2),
    )
    rep = mc_verify_tiling(doubled, HeisAction("left", L), doubled.bbox,
                           samples=100, seed=7)
    assert rep.histogram == {2: 100}


def test_window_must_cover_candidate():
    L = HeisLattice.standard()
    cand = malcev_cell(L)
    small = ((Fraction(0), Fraction(1, 2)), cand.bbox[1], cand.bbox[2])
    with pytest.raises(WindowTooSmall):
        mc_verify_tiling(cand, HeisAction("left", L), small, 10, 0)
    with pytest.raises(InvalidInput):
        mc_verify_tiling(cand, HeisAction("left", L), cand.bbox, 0, 0)


def test_wider_window_sees_zeros():
    L = HeisLattice.standard()
    cand = malcev_cell(L)
    wide = (
        (Fraction(-2), Fraction(2)),
        cand.bbox[1],
        cand.bbox[2],
    )
    rep = mc_verify_tiling(cand, HeisAction("left", L), wide,
                           samples=200, seed=11)
    # translates still tile all of space, so multiplicity stays one
    assert rep.histogram == {1: 200}


# ------------------------------------ integer kernels against Fractions


@st.composite
def heis_lattices(draw):
    """diag(d / s, s) times an upper shear, rows possibly swapped, with a
    half-integer determinant of either sign; denominators up to 7."""
    d = draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1),
                              Fraction(-1), Fraction(3, 2), Fraction(-2)]))
    s = draw(st.builds(Fraction, st.integers(1, 7), st.integers(1, 7)))
    h = draw(st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7)))
    rows = [[d / s, d / s * h], [Fraction(0), s]]
    return HeisLattice(rows[::-1] if draw(st.booleans()) else rows)


sides = st.sampled_from(["left", "right"])
# faces at t = 0 and t = 1 and rationals inside and outside [0, 1)
unit_coords = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]),
                        st.fractions(-2, 3, max_denominator=12))


def _faces(cand, kind, cut=False):
    """The candidate with its exact faces, with thick faces (so that
    samples get resampled), or with no boundary predicate; with `cut`,
    only its part below c = 1/2, so that the histogram also depends on
    the central coordinate of each translate."""
    contains = (lambda g: cand.contains(g) and 2 * g.c < 1) if cut else cand.contains
    if kind == "exact":
        return CandidateDomain(contains, cand.bbox, cand.boundary)
    thick = (lambda g: 4 * g.x1 < 1 or 4 * g.c < 1) if kind == "thick" else None
    return CandidateDomain(contains, cand.bbox, thick)


@given(heis_lattices(), sides, st.sampled_from(["cell", "psi"]),
       st.sampled_from(["exact", "thick", "none"]), st.booleans(),
       st.lists(st.builds(Fraction, st.integers(0, 2), st.integers(1, 4)),
                min_size=6, max_size=6),
       st.integers(1, 12), st.integers(0, 2 ** 32))
def test_mc_report_equals_fraction_reference(L, side, which, faces, cut, margins,
                                             samples, seed):
    if which == "cell":
        cand, ref = malcev_cell(L), oracles.fraction_malcev_cell(L)
    else:
        cand, ref = psi_cell(), oracles.fraction_psi_cell()
    cand, ref = _faces(cand, faces, cut), _faces(ref, faces, cut)
    window = tuple((lo - margins[2 * i], hi + margins[2 * i + 1])
                   for i, (lo, hi) in enumerate(cand.bbox))
    action = HeisAction(side, L)
    got = mc_verify_tiling(cand, action, window, samples, seed)
    want = oracles.fraction_mc_verify_tiling(ref, action, window, samples, seed)
    assert got.histogram == want.histogram
    assert got.samples == want.samples
    assert got.seed == want.seed
    assert got.resampled == want.resampled


def test_thick_faces_resample():
    L = HeisLattice.standard()
    cand = _faces(malcev_cell(L), "thick")
    rep = mc_verify_tiling(cand, HeisAction("left", L), cand.bbox, 40, 3)
    assert rep.resampled > 0
    assert rep == oracles.fraction_mc_verify_tiling(
        _faces(oracles.fraction_malcev_cell(L), "thick"), HeisAction("left", L),
        cand.bbox, 40, 3)


# The library candidates carry integer forms of their predicates, which
# the translate count calls on each sample's scale. `_faces` keeps both
# library predicates only for exact faces without a cut, so these cases
# run that path, and a mix of both paths, against the all-Fraction
# reference.


def _reference(L):
    """The all-Fraction form of malcev_cell(L) (or psi_cell() for L None)."""
    return oracles.fraction_psi_cell() if L is None else oracles.fraction_malcev_cell(L)


def _assert_same_report(cand, ref, action, window, samples, seed):
    got = mc_verify_tiling(cand, action, window, samples, seed)
    assert got == oracles.fraction_mc_verify_tiling(ref, action, window, samples, seed)


@given(heis_lattices(), sides, st.sampled_from(["cell", "psi"]),
       st.lists(st.builds(Fraction, st.integers(0, 2), st.integers(1, 4)),
                min_size=6, max_size=6),
       st.integers(1, 12), st.integers(0, 2 ** 32))
def test_library_candidates_equal_fraction_reference(L, side, which, margins, samples, seed):
    own = L if which == "cell" else None
    cand = malcev_cell(L) if which == "cell" else psi_cell()
    window = tuple((lo - margins[2 * i], hi + margins[2 * i + 1])
                   for i, (lo, hi) in enumerate(cand.bbox))
    _assert_same_report(cand, _reference(own), HeisAction(side, L), window,
                        samples, seed)


@given(heis_lattices(), heis_lattices(), sides, st.integers(1, 6), st.integers(0, 2 ** 32))
def test_cell_under_another_lattice_equals_fraction_reference(L1, L2, side, samples, seed):
    # the samples sit on the scale of L2, whose denominators differ from L1's
    assume(L1.form.scale != L2.form.scale)
    cand, action = malcev_cell(L1), HeisAction(side, L2)
    assume(heis._translate_counter(cand, action)[0] <= 200)
    _assert_same_report(cand, _reference(L1), action, cand.bbox, samples, seed)


@given(heis_lattices(), sides, st.sampled_from(["cell", "psi"]),
       st.sampled_from(["boundary", "contains"]), st.integers(1, 8), st.integers(0, 2 ** 32))
def test_one_predicate_replaced_equals_fraction_reference(L, side, which, replaced,
                                                         samples, seed):
    # one predicate keeps its integer form, the other is a plain HeisPoint test
    own = L if which == "cell" else None
    cand = malcev_cell(L) if which == "cell" else psi_cell()
    # thick faces resample most draws, each costing the reference `bound` tests
    assume(heis._translate_counter(cand, HeisAction(side, L))[0] <= 16)
    ref = _reference(own)
    if replaced == "boundary":
        thick = lambda g: 4 * g.x1 < 1 or 4 * g.c < 1  # noqa: E731
        cand = CandidateDomain(cand.contains, cand.bbox, thick)
        ref = CandidateDomain(ref.contains, ref.bbox, thick)
    else:
        cand = CandidateDomain(lambda g, f=cand.contains: f(g) and 2 * g.c < 1,
                               cand.bbox, cand.boundary)
        ref = CandidateDomain(lambda g, f=ref.contains: f(g) and 2 * g.c < 1,
                              ref.bbox, ref.boundary)
    _assert_same_report(cand, ref, HeisAction(side, L), cand.bbox, samples, seed)


@given(heis_lattices(), unit_coords, unit_coords, unit_coords, st.integers(1, 6))
def test_on_scale_equals_fraction_forms(L, t1, t2, t3, k):
    # points on and near the faces, handed over on k times their own scale
    x = mat_vec(L.A, (t1, t2))
    cases = (
        (malcev_cell(L), HeisPoint(x[0], x[1], t3),
         lambda g: oracles.fraction_cell_contains(L, g),
         lambda g: oracles.fraction_cell_boundary(L, g)),
        (psi_cell(), HeisPoint(t1, t2, t3 + 2 * t1 * t2),
         oracles.fraction_psi_contains, oracles.fraction_psi_boundary),
    )
    for cand, g, inside, on_face in cases:
        S = k * math.lcm(g.x1.denominator, g.x2.denominator, g.c.denominator)
        v = (int(g.x1 * S), int(g.x2 * S), int(g.c * S * S))
        assert cand.contains.on_scale(S, v) == inside(g)
        assert cand.boundary.on_scale(S, v) == on_face(g)
        assert cand.contains(g) == inside(g)
        assert cand.boundary(g) == on_face(g)


def test_resampled_draws_stay_within_the_budget(monkeypatch):
    # every draw lands on a face, so only the cap ends the resampling
    L = HeisLattice.standard()
    cell = malcev_cell(L)
    cand = CandidateDomain(cell.contains, cell.bbox, lambda g: True)
    calls = []
    original = heis._translate_counter

    def counting(candidate, action):
        bound, count = original(candidate, action)
        calls.append(bound)

        def counted(z):
            calls.append(z)
            return count(z)
        return bound, counted

    monkeypatch.setattr(heis, "_translate_counter", counting)
    monkeypatch.setattr(heis, "MAX_TRANSLATE_TESTS", 800)
    rep = mc_verify_tiling(cand, HeisAction("left", L), cand.bbox, 10, 5)
    bound, draws = calls[0], len(calls) - 1
    assert bound == 8  # two planar and two central exponents each
    # the cap is min(64 * 10, 800 // 8 - 10) = 90, not 640
    assert rep.resampled == 90
    assert draws == rep.samples + rep.resampled == 100
    assert draws * bound <= 800
    assert sum(rep.histogram.values()) == 10


@given(heis_lattices(), sides,
       st.tuples(*[st.fractions(-50, 50, max_denominator=1000)] * 3))
def test_reduction_equals_fraction_reference(L, side, xs):
    g = HeisPoint(*xs)
    got = (reduce_left if side == "left" else reduce_right)(g, L)
    want = oracles.fraction_reduce(g, L, side)
    assert got.gamma == want.gamma
    assert got.exponents == want.exponents
    assert got.omega == want.omega
    assert L.exponents(got.gamma) == got.exponents


@given(heis_lattices(), unit_coords, unit_coords, unit_coords)
def test_cell_predicates_equal_fraction_forms(L, t1, t2, t3):
    x = mat_vec(L.A, (t1, t2))
    g = HeisPoint(x[0], x[1], t3)
    assert cell_contains(L, g) == oracles.fraction_cell_contains(L, g)
    assert malcev_cell(L).boundary(g) == oracles.fraction_cell_boundary(L, g)
    in_lattice = (t1.denominator == 1 and t2.denominator == 1
                  and (t3 - t1 * t2 * L.planar_det).denominator == 1)
    assert L.contains(g) == in_lattice
    # the psi chart: x = (t1, t2), c = t3 + 2 t1 t2
    h = HeisPoint(t1, t2, t3 + 2 * t1 * t2)
    cand = psi_cell()
    assert cand.contains(h) == oracles.fraction_psi_contains(h)
    assert cand.boundary(h) == oracles.fraction_psi_boundary(h)


@pytest.fixture
def no_draws(monkeypatch):
    def draw(self, box):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(DyadicSampler, "in_box", draw)


@pytest.mark.parametrize("samples", [2.5, True, "10", None])
def test_samples_must_be_an_integer(samples, no_draws):
    L = HeisLattice.standard()
    cand = malcev_cell(L)
    with pytest.raises(InvalidInput, match="samples must be an integer"):
        mc_verify_tiling(cand, HeisAction("left", L), cand.bbox, samples, 0)


@pytest.mark.parametrize("window", [
    ((0, 1), (0, 1)),
    ((0, 1), (0, 1), (0, 1), (0, 1)),
    ((0, 1), (0, 1), (0, 1, 2)),
    5,
])
def test_window_must_be_three_intervals(window, no_draws):
    L = HeisLattice.standard()
    cand = malcev_cell(L)
    with pytest.raises(InvalidInput, match="window must be 3 intervals"):
        mc_verify_tiling(cand, HeisAction("left", L), window, 10, 0)


def test_thin_lattice_is_refused_before_sampling(no_draws):
    L = HeisLattice(((Fraction(1, 5000), 0), (0, 5000)))
    cand = psi_cell()
    t0 = time.monotonic()
    with pytest.raises(TooLarge, match="budget of 800000"):
        mc_verify_tiling(cand, HeisAction("right", L), cand.bbox, 2000, 0)
    assert time.monotonic() - t0 < 1.0


def test_translate_budget_is_samples_times_the_per_sample_bound(monkeypatch):
    # psi against the integer points: 2 x 2 x 4 = 16 translate tests a sample
    monkeypatch.setattr(heis, "MAX_TRANSLATE_TESTS", 160)
    cand = psi_cell()
    action = HeisAction("right", HeisLattice.standard())
    assert mc_verify_tiling(cand, action, cand.bbox, 10, 0).histogram == {1: 10}
    with pytest.raises(TooLarge):
        mc_verify_tiling(cand, action, cand.bbox, 11, 0)


def test_cube_chart_image_tiles_on_the_right():
    assert psi_image_domain_check(samples=400, seed=1)


def test_cube_chart_image_membership():
    cand = psi_cell()
    assert cand.contains(HeisPoint("1/2", "1/2", "1/2"))
    assert cand.contains(HEIS_IDENTITY)
    assert not cand.contains(HeisPoint("1/2", "1/2", "5/2"))


# ----------------------------------------------------------------- growth


def test_ball_sizes_frozen():
    assert discrete_ball_growth(5) == [1, 5, 17, 53, 135, 299]


def test_ball_sizes_match_matrix_model():
    assert discrete_ball_growth(8) == oracles.ball_sizes_via_matrices(8)


def test_growth_exponent_is_quartic():
    sizes = discrete_ball_growth(30)
    assert sizes[0] == 1 and sizes[1] == 5
    assert 3.5 <= growth_exponent_estimate(sizes) <= 4.5


def test_growth_bounds_enforced():
    with pytest.raises(TooLarge):
        discrete_ball_growth(31)
    with pytest.raises(InvalidInput):
        discrete_ball_growth(-1)
    with pytest.raises(InvalidInput):
        growth_exponent_estimate([1, 5])
