import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tessella import lattices
from tessella.boxes import MAX_COVER_CELLS, MAX_PIECES, FrameRegion, box_volume, make_box
from tessella.errors import (
    ConditionFails,
    CovolumeMismatch,
    Incommensurable,
    InvalidDomain,
    InvalidInput,
    NotSublattice,
    TooLarge,
)
from tessella.lattices import (
    MAX_CELLS,
    EucLattice,
    _CellSystem,
    StepFunction,
    TSComponent,
    TranslationSystem,
    boundary_count,
    boundary_series,
    common_fd_commensurable,
    construct_k_epsilon_lattices,
    covolume,
    function_tiling_check,
    fundamental_parallelepiped,
    index,
    lattice_intersection,
    lattice_sum,
    region_reduce_mod,
    translation_system_check,
    translation_system_common_fd,
    verify_packing_exact,
    verify_tiling_exact,
)
from tessella.linalg import det, hnf, identity, integer_meet, mat, mat_mul, mat_vec
from tessella.sampling import DyadicSampler

import oracles


def L(*cols):
    """Lattice from column tuples."""
    n = len(cols[0])
    return EucLattice([[Fraction(cols[j][i]) for j in range(len(cols))]
                       for i in range(n)])


def region(*corner_pairs, frame=None):
    boxes = tuple(make_box(lo, hi) for lo, hi in corner_pairs)
    n = len(boxes[0])
    return FrameRegion(frame if frame is not None else identity(n), boxes)


HALF_TALL = L(("1/2", 0), (0, 2))


# ----------------------------------------------------------------- basics


def test_covolume_values():
    assert covolume(EucLattice.standard(2)) == 1
    assert covolume(HALF_TALL) == 1
    assert covolume(L((2, 1), (1, 2))) == 3


def test_lattice_rejects_singular_basis():
    with pytest.raises(InvalidInput):
        EucLattice([[1, 2], [2, 4]])


def test_lattice_membership():
    assert HALF_TALL.contains((Fraction(3, 2), 4))
    assert not HALF_TALL.contains((Fraction(3, 2), 1))


def test_canonical_basis_identifies_equal_lattices():
    a = L((1, 0), (0, 1))
    b = L((1, 1), (2, 1))  # det -1, same lattice
    assert a.same_lattice(b)
    assert a.canonical_basis == b.canonical_basis


def test_sum_intersection_index():
    z2 = EucLattice.standard(2)
    inter = lattice_intersection(z2, HALF_TALL)
    assert covolume(inter) == 2
    assert inter.same_lattice(L((1, 0), (0, 2)))
    total = lattice_sum(z2, HALF_TALL)
    assert covolume(total) == Fraction(1, 2)
    assert total.same_lattice(L(("1/2", 0), (0, 1)))
    assert index(inter, z2) == 2
    assert index(inter, HALF_TALL) == 2
    assert lattice_intersection(z2, z2).same_lattice(z2)


def test_index_requires_sublattice():
    with pytest.raises(NotSublattice):
        index(EucLattice.standard(2), HALF_TALL)


@st.composite
def rational_lattices(draw, n):
    """Nonsingular n x n bases with entries p/q, |p| <= 4, q <= 3."""
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n).filter(
                             lambda r: oracles.fraction_det(r) != 0))
    return EucLattice(rows)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    rational_lattices(n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    st.lists(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4)),
             min_size=n, max_size=n))))
def test_integer_form_equals_fraction_reference(args):
    lat, z, shift = args
    assert covolume(lat) == oracles.fraction_covolume(lat.basis)
    point = mat_vec(lat.basis, tuple(Fraction(x) for x in z))
    assert lat.contains(point)
    # a shifted point is in L exactly when the shift is
    moved = tuple(p + s for p, s in zip(point, shift))
    assert lat.contains(moved) == oracles.fraction_contains(lat.basis, moved)
    assert lat.contains(shift) == oracles.fraction_contains(lat.basis, shift)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    rational_lattices(n), rational_lattices(n),
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
             min_size=n, max_size=n))))
def test_index_equals_fraction_reference(args):
    lat, other, coeffs = args
    # an integer combination of the basis gives a sublattice when it is
    # nonsingular; `other` is usually not contained in `lat`
    candidates = [other]
    if oracles.fraction_det(coeffs) != 0:
        candidates.append(EucLattice(mat_mul(lat.basis, mat(coeffs))))
    for sub in candidates:
        want = oracles.fraction_index(sub.basis, lat.basis)
        if want is None:
            with pytest.raises(NotSublattice):
                index(sub, lat)
        else:
            got = index(sub, lat)
            assert type(got) is int and got == want


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    rational_lattices(n), rational_lattices(n))), st.integers(1, 3))
def test_integer_meet_equals_dual_formula(pair, split):
    l1, l2 = pair
    want = oracles.fraction_lattice_intersection(l1.basis, l2.basis)
    assert lattice_intersection(l1, l2).basis == want
    # in the coordinates of the sum, refined along its first axis as the
    # cell system refines it, the meet of the images is the image of the
    # intersection, whether the images are Hermite-reduced or not
    S = lattice_sum(l1, l2)
    S = EucLattice([(row[0] / split,) + row[1:] for row in S.basis])
    K1, K2 = S.form.coordinates(l1.basis), S.form.coordinates(l2.basis)
    image = hnf(S.form.coordinates(want))
    assert integer_meet(hnf(K1), hnf(K2)) == image
    assert integer_meet(K1, K2) == image


def test_contains_refuses_wrong_length():
    with pytest.raises(ValueError):
        HALF_TALL.contains((1, 2, 3))
    with pytest.raises(ValueError):
        HALF_TALL.contains((1,))


def test_dimension_mismatch_is_incommensurable():
    with pytest.raises(Incommensurable):
        lattice_sum(EucLattice.standard(1), EucLattice.standard(2))


def test_index_against_point_count():
    rng = random.Random(23)
    for _ in range(12):
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        try:
            base = EucLattice(rows)
        except InvalidInput:
            continue
        k = rng.randint(1, 3)
        sub = EucLattice([[x * k for x in row] for row in base.basis])
        got = index(sub, base)
        cols_sub = [tuple(r[j] for r in sub.basis) for j in range(2)]
        cols_base = [tuple(r[j] for r in base.basis) for j in range(2)]
        assert got == oracles.index_by_point_count(cols_sub, cols_base)
        assert got * covolume(base) == covolume(sub)


def test_covolume_multiplicativity():
    rng = random.Random(29)
    for _ in range(15):
        rows1 = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(2)] for _ in range(2)]
        rows2 = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(2)] for _ in range(2)]
        try:
            l1, l2 = EucLattice(rows1), EucLattice(rows2)
        except InvalidInput:
            continue
        inter = lattice_intersection(l1, l2)
        total = lattice_sum(l1, l2)
        assert covolume(inter) * covolume(total) == covolume(l1) * covolume(l2)
        assert index(inter, l1) == covolume(inter) / covolume(l1)


# ----------------------------------------------------------- verification


def test_parallelepiped_tiles():
    box = fundamental_parallelepiped(HALF_TALL)
    assert box.measure == 1
    assert verify_tiling_exact(box, HALF_TALL).ok


def test_parallelepiped_tiles_random_lattices():
    rng = random.Random(31)
    built = 0
    while built < 60:
        n = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(n)]
        try:
            lat = EucLattice(rows)
        except InvalidInput:
            continue
        built += 1
        P = fundamental_parallelepiped(lat)
        assert P.measure == covolume(lat)
        assert verify_tiling_exact(P, lat).ok


def test_reduce_levels_match_hand_splitting():
    red = region_reduce_mod(region(((0, 0), ("3/2", 1))), EucLattice.standard(2))
    assert red.level_measure(2) == Fraction(1, 2)
    assert red.level_measure(1) == Fraction(1, 2)


def test_tiling_verdicts_and_witnesses():
    z2 = EucLattice.standard(2)
    assert verify_tiling_exact(region(((0, 0), (1, 1))), z2).ok

    narrow = region(((0, 0), (("1/2"), 1)))
    packing = verify_packing_exact(narrow, z2)
    assert packing.ok
    tiling = verify_tiling_exact(narrow, z2)
    assert not tiling.ok
    assert tiling.witness["multiplicity"] == 0
    # the witness is a point of the torus no translate covers
    p = tiling.witness["point"]
    assert oracles.covering_multiplicity(
        [(1, 0), (0, 1)], narrow, tuple(p)) == 0

    wide = region(((0, 0), (2, 1)))
    packing = verify_packing_exact(wide, z2)
    assert not packing.ok
    assert packing.witness["multiplicity"] == 2
    p = packing.witness["point"]
    assert oracles.covering_multiplicity(
        [(1, 0), (0, 1)], wide, tuple(p)) == 2


def test_verification_in_lattice_frame():
    box = region((((0, 0)), ((1, 1))), frame=[["1/2", 0], [0, 2]])
    assert verify_tiling_exact(box, HALF_TALL).ok
    assert not verify_tiling_exact(box, EucLattice.standard(2)).ok


# ------------------------------------------------------- common domains


def test_common_domain_frozen_output():
    D = common_fd_commensurable(EucLattice.standard(2), HALF_TALL)
    assert D.frame == mat([["1/2", 0], [0, 1]])
    assert D.boxes == (make_box((0, 0), (1, 1)), make_box((1, 1), (2, 2)))
    assert D.measure == 1
    assert verify_tiling_exact(D, EucLattice.standard(2)).ok
    assert verify_tiling_exact(D, HALF_TALL).ok


def test_common_domain_equal_lattices():
    D = common_fd_commensurable(HALF_TALL, HALF_TALL)
    P = fundamental_parallelepiped(HALF_TALL)
    assert D.frame == P.frame and D.boxes == P.boxes


def test_common_domain_swapped_aspect():
    D = common_fd_commensurable(EucLattice.standard(2), L((2, 0), (0, "1/2")))
    assert D.measure == 1
    assert verify_tiling_exact(D, EucLattice.standard(2)).ok
    assert verify_tiling_exact(D, L((2, 0), (0, "1/2"))).ok


def test_common_domain_covolume_mismatch():
    with pytest.raises(CovolumeMismatch):
        common_fd_commensurable(EucLattice.standard(2), L((2, 0), (0, 2)))


def unimodular(rng, n=2):
    m = identity(n)
    for _ in range(4):
        a, b = rng.sample(range(n), 2)
        s = rng.randint(-2, 2)
        rows = [list(r) for r in m]
        for j in range(n):
            rows[a][j] += s * rows[b][j]
        m = mat(rows)
    return m


def random_equal_covolume_pair(rng):
    while True:
        d = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3), d) for _ in range(2)]
                for _ in range(2)]
        try:
            first = EucLattice(rows)
        except InvalidInput:
            continue
        if abs(covolume(first)) > 6:
            continue
        second = EucLattice(mat_mul(unimodular(rng), first.basis))
        return first, second


def test_common_domain_random_pairs():
    rng = random.Random(37)
    sampler = DyadicSampler(41)
    for _ in range(25):
        l1, l2 = random_equal_covolume_pair(rng)
        D = common_fd_commensurable(l1, l2)
        assert D.measure == covolume(l1)
        assert verify_tiling_exact(D, l1).ok
        assert verify_tiling_exact(D, l2).ok
        cols1 = [tuple(r[j] for r in l1.basis) for j in range(2)]
        cols2 = [tuple(r[j] for r in l2.basis) for j in range(2)]
        for _ in range(3):
            p = (sampler.in_interval(-2, 2), sampler.in_interval(-2, 2))
            assert oracles.covering_multiplicity(cols1, D, p) == 1
            assert oracles.covering_multiplicity(cols2, D, p) == 1


# ----------------------------------------------------------- k + epsilon


def test_split_two_stacked_domains():
    fs, feps = construct_k_epsilon_lattices(
        EucLattice.standard(2), L((1, 0), (0, "1/2")))
    assert feps.boxes == ()
    assert len(fs) == 2
    for f in fs:
        assert f.measure == Fraction(1, 2)
        assert verify_tiling_exact(f, L((1, 0), (0, "1/2"))).ok


def test_split_identical_lattices():
    fs, feps = construct_k_epsilon_lattices(HALF_TALL, HALF_TALL)
    assert len(fs) == 1
    assert fs[0].measure == 1
    assert feps.boxes == ()


def test_split_fractional_remainder():
    fs, feps = construct_k_epsilon_lattices(
        EucLattice.standard(2), L(("2/3", 0), (0, 1)))
    assert len(fs) == 1
    assert feps is not None
    assert feps.measure == Fraction(1, 3)
    assert verify_tiling_exact(fs[0], L(("2/3", 0), (0, 1))).ok
    assert verify_packing_exact(feps, L(("2/3", 0), (0, 1))).ok


def unit_cells(lo, hi):
    """The unit boxes [i, i+1) x [0, 1) of a 2-D frame, lo <= i < hi."""
    return tuple(make_box((i, 0), (i + 1, 1)) for i in range(lo, hi))


def test_split_frozen_on_three_blocks():
    # ratio 5/3: k = 1, eps = 2/3; the 45 cells of the sum lattice refined
    # by 3 along its first axis fall into three joint cosets
    fs, feps = construct_k_epsilon_lattices(
        EucLattice.standard(2), L(("3/5", 0), (0, 1)))
    frame = mat([["1/15", 0], [0, 1]])
    assert [f.frame for f in fs] == [frame] and feps.frame == frame
    assert fs[0].boxes == unit_cells(0, 9)
    assert feps.boxes == unit_cells(9, 15)


def test_split_frozen_on_two_blocks():
    # ratio 3/2: k = 1, eps = 1/2; the 12 refined cells form two joint cosets
    fs, feps = construct_k_epsilon_lattices(
        EucLattice.standard(2), L(("2/3", 0), (0, 1)))
    frame = mat([["1/6", 0], [0, 1]])
    assert [f.frame for f in fs] == [frame] and feps.frame == frame
    assert fs[0].boxes == unit_cells(0, 4)
    assert feps.boxes == unit_cells(4, 6)


def test_split_rejects_small_first_lattice():
    with pytest.raises(ConditionFails):
        construct_k_epsilon_lattices(L(("2/3", 0), (0, 1)),
                                     EucLattice.standard(2))


def test_split_random_ratios():
    rng = random.Random(43)
    for _ in range(10):
        l1, l2base = random_equal_covolume_pair(rng)
        num = rng.randint(1, 3)
        den = rng.randint(1, 3)
        if Fraction(num, den) > 1:
            num, den = den, num
        scale = Fraction(num, den)  # covol(l2) = scale * covol(l1) <= covol(l1)
        l2 = EucLattice([[x * scale for x in row] for row in l2base.basis])
        ratio = covolume(l1) / covolume(l2)
        k = int(ratio // 1)
        eps = ratio - k
        fs, feps = construct_k_epsilon_lattices(l1, l2)
        assert len(fs) == k
        for f in fs:
            assert f.measure == covolume(l2)
            assert verify_tiling_exact(f, l2).ok
        if eps:
            assert feps is not None
            assert feps.measure == eps * covolume(l2)
            assert verify_packing_exact(feps, l2).ok


# ------------------------------------------------------ translation systems


def two_component_system():
    return TranslationSystem(1, [
        TSComponent(1, [[2]], [[1]]),
        TSComponent(1, [[1]], [[2]]),
    ])


def system_domains():
    X = [region(((0,), (2,))), region(((0,), (1,)))]
    Y = [region(((0,), (1,))), region(((0,), (2,)))]
    return X, Y


def test_system_mismatched_ratios_fail():
    ts = two_component_system()
    X, Y = system_domains()
    rep = translation_system_check(ts, X, Y)
    assert not rep.ok
    assert rep.ratios == (Fraction(2), Fraction(1, 2))
    assert rep.offending == (0, 1)


def test_system_single_component_passes():
    ts = TranslationSystem(1, [TSComponent(1, [[1]], [[1]])])
    rep = translation_system_check(ts, [region(((0,), (1,)))],
                                   [region(((0,), (1,)))])
    assert rep.ok
    assert rep.ratios == (Fraction(1),)


def test_system_equal_nonunit_ratios_pass():
    ts = TranslationSystem(1, [
        TSComponent(1, [[3]], [[2]]),
        TSComponent(1, [["3/2"]], [[1]]),
    ])
    X = [region(((0,), (3,))), region(((0,), ("3/2",)))]
    Y = [region(((0,), (2,))), region(((0,), (1,)))]
    rep = translation_system_check(ts, X, Y)
    assert rep.ok
    assert rep.ratios == (Fraction(3, 2), Fraction(3, 2))


def test_system_rejects_bad_domain():
    ts = TranslationSystem(1, [TSComponent(1, [[2]], [[1]])])
    with pytest.raises(InvalidDomain):
        translation_system_check(ts, [region(((0,), (1,)))],
                                 [region(((0,), (1,)))])


def test_system_common_domains():
    ts = TranslationSystem(2, [
        TSComponent(2, [[1, 0], [0, 1]], [["1/2", 0], [0, 2]]),
    ])
    domains = translation_system_common_fd(ts)
    assert len(domains) == 1
    assert verify_tiling_exact(domains[0], EucLattice.standard(2)).ok
    assert verify_tiling_exact(domains[0], HALF_TALL).ok


def test_system_common_domain_refused_on_obstruction():
    with pytest.raises(ConditionFails):
        translation_system_common_fd(two_component_system())


def test_system_identical_components_get_parallelepipeds():
    ts = TranslationSystem(1, [
        TSComponent(1, [[2]], [[2]]),
        TSComponent(1, [[2]], [[2]]),
    ])
    domains = translation_system_common_fd(ts)
    for d in domains:
        assert d.measure == 2
        assert verify_tiling_exact(d, L((2,))).ok


def clip_length(lo, hi, a, b):
    return max(Fraction(0), min(hi, b) - max(lo, a))


def test_system_verdict_matches_sampling_oracle():
    # random 1-D two-component systems; invariant test sets are unions of
    # joint-period cells per component, measured by direct interval clipping
    rng = random.Random(47)
    for _ in range(20):
        comps = []
        xs, ys = [], []
        spans = []
        for _ in range(2):
            a = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            b = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            comps.append(TSComponent(1, [[a]], [[b]]))
            xs.append(region(((0,), (a,))))
            ys.append(region(((0,), (b,))))
            spans.append((a, b))
        ts = TranslationSystem(1, comps)
        verdict = translation_system_check(ts, xs, ys).ok

        disagreement = False
        for _ in range(60):
            mx = Fraction(0)
            my = Fraction(0)
            for (a, b) in spans:
                # joint period: both a and b are integer multiples of g
                g = Fraction(1, a.denominator * b.denominator)
                cells = rng.randint(0, 3)
                for _ in range(cells):
                    # one g-cell of the joint-period torus, repeated with
                    # period lcm(a, b) inside [0, lcm)
                    period_num = (a * b / g).numerator  # lcm(a,b)/g cells
                    start = g * rng.randint(0, period_num - 1)
                    lcm_ab = g * period_num
                    t = Fraction(0)
                    while t < 24:  # enough periods to cover both domains
                        lo, hi = start + t, start + t + g
                        mx += clip_length(lo, hi, 0, a)
                        my += clip_length(lo, hi, 0, b)
                        t += lcm_ab
            total_x = sum(a for a, _ in spans)
            total_y = sum(b for _, b in spans)
            if mx * total_y != my * total_x:
                disagreement = True
                break
        assert verdict == (not disagreement)


# -------------------------------------------------------- function tiling


def test_indicator_of_unit_square_tiles():
    f = StepFunction(((region(((0, 0), (1, 1))), Fraction(1)),))
    assert function_tiling_check(f, EucLattice.standard(2))


def test_half_weight_double_width_tiles():
    f = StepFunction(((region(((0, 0), (2, 1))), Fraction(1, 2)),))
    assert function_tiling_check(f, EucLattice.standard(2))


def test_uneven_periodization_fails():
    f = StepFunction(((region(((0, 0), ("3/2", 1))), Fraction(1)),))
    assert not function_tiling_check(f, EucLattice.standard(2))


def test_function_check_matches_tiling_verdict():
    rng = random.Random(53)
    for _ in range(20):
        lo1 = Fraction(rng.randint(0, 2), 2)
        w = Fraction(rng.randint(1, 4), 2)
        D = region(((lo1, 0), (lo1 + w, 1)))
        f = StepFunction(((D, Fraction(1)),))
        assert function_tiling_check(f, EucLattice.standard(2)) == \
            verify_tiling_exact(D, EucLattice.standard(2)).ok


def test_step_function_rejects_negative_weight():
    with pytest.raises(InvalidInput):
        StepFunction(((region(((0, 0), (1, 1))), Fraction(-1)),))


def test_step_function_rejects_mixed_frames():
    with pytest.raises(InvalidInput):
        StepFunction((
            (region(((0, 0), (1, 1))), Fraction(1)),
            (region(((0, 0), (1, 1)), frame=[[2, 0], [0, 1]]), Fraction(1)),
        ))


# ------------------------------------------------------------- boundaries


def test_aligned_block_has_no_straddlers():
    bc = boundary_count(EucLattice.standard(2), region(((0, 0), (3, 3))))
    assert (bc.interior, bc.boundary) == (9, 0)


def test_offset_square_counts():
    bc = boundary_count(EucLattice.standard(2),
                        region(((0, 0), ("5/2", "5/2"))))
    assert (bc.interior, bc.boundary) == (4, 5)


def test_custom_domain_agrees_with_default():
    A = region(((0, 0), ("5/2", "5/2")))
    X = region(((0, 0), (1, 1)))
    default = boundary_count(EucLattice.standard(2), A)
    custom = boundary_count(EucLattice.standard(2), A, X)
    assert (custom.interior, custom.boundary) == \
        (default.interior, default.boundary)


def test_boundary_series_ratio_decreases():
    regions = [region(((0, 0), (Fraction(2 * n + 1, 2), Fraction(2 * n + 1, 2))))
               for n in range(1, 9)]
    series = boundary_series(EucLattice.standard(2), regions)
    for n, entry in enumerate(series, start=1):
        assert entry.boundary == 2 * n + 1
        assert entry.interior == n * n
        assert entry.inner_measure <= entry.measure <= entry.outer_measure
    ratios = [entry.ratio for entry in series]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_cell_budget_refuses_before_building_cells():
    # diag(1/1000, 1000) against Z^2 has 10^6 cells, far above MAX_CELLS
    tall = L(("1/1000", 0), (0, 1000))
    t0 = time.monotonic()
    for construct in (common_fd_commensurable, construct_k_epsilon_lattices):
        with pytest.raises(TooLarge, match="1000000 cells"):
            construct(tall, EucLattice.standard(2))
    assert time.monotonic() - t0 < 1.0


def test_common_domain_at_the_cell_budget_edge():
    # diag(1/87, 87) against Z^2 has 87^2 = 7569 cells, just under MAX_CELLS
    tall = L(("1/87", 0), (0, 87))
    assert 87 * 87 <= MAX_CELLS
    D = common_fd_commensurable(tall, EucLattice.standard(2))
    assert D.measure == 1 and len(D.boxes) == 87
    assert verify_tiling_exact(D, tall).ok
    assert verify_tiling_exact(D, EucLattice.standard(2)).ok


def test_reduction_budgets_admit_every_cell_union_of_a_construction():
    # A construction verifies unions of at most MAX_CELLS unit cells of S
    # against lattices L <= S: each cell is one piece of the reduction,
    # and the cover has [S : L] <= MAX_CELLS cells. The largest: a row of
    # MAX_CELLS cells against diag(MAX_CELLS, 1, 1, 1), whose difference
    # array has 2^3 (MAX_CELLS + 1) entries.
    assert MAX_CELLS <= MAX_PIECES and MAX_CELLS <= MAX_COVER_CELLS
    R = FrameRegion(identity(4), tuple(make_box([r, 0, 0, 0], [r + 1, 1, 1, 1])
                                       for r in range(MAX_CELLS)))
    basis = [[MAX_CELLS if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
    assert verify_tiling_exact(R, EucLattice(basis)).ok


def random_basis(rng, n, top, den):
    while True:
        m = mat([[Fraction(rng.randint(-top, top), rng.randint(1, den))
                  for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m


def test_cell_labels_name_the_cosets():
    # Oracle: cells r, r' share an L-label exactly when S.basis (r - r')
    # lies in L, tested by L.contains on every pair of cells.
    rng = random.Random(59)
    seen = set()
    cases = 0
    while cases < 60:
        n = rng.randint(1, 3)
        l1 = EucLattice(random_basis(rng, n, 3, 3))
        l2 = EucLattice(mat_mul(l1.basis, random_basis(rng, n, 2, 2)))
        split = (covolume(l1) / covolume(l2) % 1).denominator
        try:
            cs = _CellSystem(l1, l2, first_axis_split=split)
        except TooLarge:
            continue
        if len(cs.reps) > 32:
            continue
        cases += 1
        seen.add((n, split > 1))
        for i, r in enumerate(cs.reps):
            for j in range(i + 1, len(cs.reps)):
                diff = mat_vec(cs.S.basis, tuple(Fraction(a - b) for a, b in zip(r, cs.reps[j])))
                assert (cs.left[i] == cs.left[j]) == l1.contains(diff)
                assert (cs.right[i] == cs.right[j]) == l2.contains(diff)
    assert {(n, split) for n in (1, 2, 3) for split in (False, True)} <= seen


def test_one_reduction_per_region_and_lattice(monkeypatch):
    reduced = []
    real = lattices.reduce_mod

    def counted(R, basis):
        reduced.append(R)
        return real(R, basis)

    monkeypatch.setattr(lattices, "reduce_mod", counted)
    R = region(([0, 0], [1, 1]), ([1, 0], [2, "1/2"]))
    wide, tall = L((2, 0), (0, 1)), L((1, 0), (0, 2))
    assert verify_tiling_exact(R, wide).ok is False
    assert verify_packing_exact(R, wide).ok is True
    boundary_count(wide, R)
    assert len(reduced) == 1
    # a second lattice object of the same basis reads the same reduction
    verify_tiling_exact(R, L((2, 0), (0, 1)))
    assert len(reduced) == 1
    # the memo holds one lattice: another one reduces, and so does the first again
    verify_packing_exact(R, tall)
    verify_tiling_exact(R, tall)
    assert len(reduced) == 2
    verify_tiling_exact(R, wide)
    assert len(reduced) == 3
    # an equal but distinct region keeps its own reduction
    twin = region(([0, 0], [1, 1]), ([1, 0], [2, "1/2"]))
    assert twin == R and twin is not R
    verify_tiling_exact(twin, wide)
    verify_packing_exact(twin, wide)
    assert len(reduced) == 4 and reduced[3] is twin
