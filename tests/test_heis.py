import random
from fractions import Fraction

import pytest

from tessella import heis
from tessella.errors import (
    InvalidInput,
    NotMeasurePreserving,
    TooLarge,
    WindowTooSmall,
)
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
