import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tessella.boxes import (
    FrameRegion,
    box_center,
    box_volume,
    boxes_overlap,
    compressed_cover,
    make_box,
    ratio,
    reduce_mod,
)
from tessella.errors import InvalidInput, TooLarge
from tessella.lattices import (
    BoundaryCount,
    EucLattice,
    boundary_count,
    verify_packing_exact,
    verify_tiling_exact,
)
from tessella.linalg import frac, identity, mat, mat_vec

import oracles

coords = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def boxes_2d(max_count=4):
    corner = st.tuples(coords, coords, coords, coords)
    return st.lists(corner, min_size=0, max_size=max_count).map(
        lambda cs: [
            ((min(a, b), max(a, b) + 1), (min(c, d), max(c, d) + 1))
            for a, b, c, d in cs
        ])


def test_box_constructors_and_volume():
    b = make_box([0, 0], [1, Fraction(1, 2)])
    assert box_volume(b) == Fraction(1, 2)
    assert box_center(b) == (Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(InvalidInput):
        make_box([0, 0], [1, 0])
    with pytest.raises(InvalidInput):
        make_box([0], [1, 1])


def test_overlap_is_strict():
    a = make_box([0, 0], [1, 1])
    b = make_box([1, 0], [2, 1])
    assert not boxes_overlap(a, b)
    assert boxes_overlap(a, make_box(["1/2", "1/2"], [2, 2]))


def test_region_rejects_overlapping_boxes():
    with pytest.raises(InvalidInput):
        FrameRegion(identity(2), (make_box([0, 0], [2, 2]),
                                  make_box([1, 1], [3, 3])))


def test_region_rejects_singular_frame():
    with pytest.raises(InvalidInput):
        FrameRegion(mat([[1, 1], [1, 1]]), (make_box([0, 0], [1, 1]),))


def test_region_measure_scales_with_frame():
    R = FrameRegion(mat([["1/2", 0], [0, 2]]),
                    (make_box([0, 0], [1, 1]), make_box([1, 1], [2, 2])))
    assert R.measure == 2


def test_region_membership_uses_frame_coordinates():
    R = FrameRegion(mat([["1/2", 0], [0, 1]]), (make_box([0, 0], [1, 1]),))
    assert R.contains((Fraction(1, 4), Fraction(1, 2)))
    assert not R.contains((Fraction(1, 2), Fraction(1, 2)))
    assert R.to_ambient((1, 1)) == (Fraction(1, 2), 1)


def test_cover_single_box():
    bounds = make_box([0, 0], [2, 2])
    piece = make_box([0, 0], [1, 1])
    cells = dict(compressed_cover([(piece, 1)], bounds))
    assert cells[((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))] == 1
    total = sum(box_volume(c) for c in cells)
    assert total == 4


@given(boxes_2d())
def test_cover_partitions_bounds(boxes):
    bounds = ((Fraction(-6), Fraction(6)), (Fraction(-6), Fraction(6)))
    pieces = [(b, 1) for b in boxes]
    cells = list(compressed_cover(pieces, bounds))
    assert sum(box_volume(c) for c, _ in cells) == box_volume(bounds)
    # weighted cell volume equals total piece volume (pieces may overlap)
    assert sum(box_volume(c) * w for c, w in cells) == \
        sum(box_volume(b) for b in boxes)


@given(boxes_2d(3))
def test_cover_counts_match_pointwise(boxes):
    bounds = ((Fraction(-6), Fraction(6)), (Fraction(-6), Fraction(6)))
    cells = list(compressed_cover([(b, 1) for b in boxes], bounds))
    rng = random.Random(3)
    for cell, w in rng.sample(cells, min(5, len(cells))):
        p = box_center(cell)
        direct = sum(
            1 for b in boxes
            if all(lo <= x < hi for x, (lo, hi) in zip(p, b)))
        assert w == direct


def test_reduce_unit_square_is_identity():
    R = FrameRegion(identity(2), (make_box([0, 0], [1, 1]),))
    red = reduce_mod(R, identity(2))
    assert red.cell_measure == 1
    assert red.level_measure(1) == 1
    assert red.uncovered == ()
    assert red.levels.keys() == {1}


def test_reduce_tracks_translates():
    # [0,2) x [0,1) reduced mod Z^2 covers the torus twice
    R = FrameRegion(identity(2), (make_box([0, 0], [2, 1]),))
    red = reduce_mod(R, identity(2))
    assert red.level_measure(2) == 1
    shifts = {w for _, w in red.pieces}
    assert shifts == {(0, 0), (1, 0)}


def test_reduce_rational_lattice():
    # reduction mod the lattice (1/2)Z x 2Z
    R = FrameRegion(identity(2), (make_box([0, 0], [1, 1]),))
    red = reduce_mod(R, mat([["1/2", 0], [0, 2]]))
    assert red.cell_measure == 1
    assert red.level_measure(2) == Fraction(1, 2)
    assert red.level_measure(1) == 0
    # the doubly covered half accounts for the region; the rest is bare
    uncovered = sum((box_volume(b) for b in red.uncovered), Fraction(0))
    assert uncovered * abs_det(red.frame) == Fraction(1, 2)


def abs_det(m):
    from tessella.linalg import det

    return abs(det(m))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(-2, 2))
def test_reduce_conserves_measure(p, q, shear):
    R = FrameRegion(identity(2),
                    (make_box([0, 0], [Fraction(p, 2), Fraction(q, 3)]),))
    basis = mat([[1, shear], [0, 1]])
    red = reduce_mod(R, basis)
    covered = sum(m * red.level_measure(m) for m in red.levels)
    assert covered == R.measure
    levels_total = sum(red.level_measure(m) for m in red.levels)
    uncovered = sum((box_volume(b) for b in red.uncovered), Fraction(0))
    assert levels_total + uncovered * abs_det(red.frame) == red.cell_measure


# ------------------------------------------- integer grids against Fractions

small = st.fractions(min_value=-1, max_value=1, max_denominator=3)
corner = st.fractions(min_value=-2, max_value=2, max_denominator=3)
width = st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=3)


@st.composite
def region_boxes(draw, n, extra=2):
    """Boxes of one of three shapes: cells of a grid (a repeated cell is
    a duplicate), free boxes with a neighbour touching the first one, or
    a box with one nested inside it; then up to `extra` random boxes."""
    kind = draw(st.sampled_from(["grid", "free", "nested"]))
    if kind == "grid":
        h = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3)]))
        cells = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n),
                              min_size=1, max_size=5))
        return [make_box([h * k for k in cell], [h * (k + 1) for k in cell])
                for cell in cells]
    lo = [draw(corner) for _ in range(n)]
    hi = [a + draw(width) for a in lo]
    boxes = [make_box(lo, hi)]
    if kind == "nested":
        inner_lo = [a + (b - a) * draw(st.sampled_from([0, Fraction(1, 3)]))
                    for a, b in zip(lo, hi)]
        boxes.append(make_box(inner_lo, [b - (b - a) / 3 for a, b in zip(lo, hi)]))
    else:
        axis = draw(st.integers(0, n - 1))
        touching_lo = list(lo)
        touching_lo[axis] = hi[axis]
        boxes.append(make_box(touching_lo, [a + draw(width) for a in touching_lo]))
    for _ in range(draw(st.integers(0, extra))):
        a = [draw(corner) for _ in range(n)]
        boxes.append(make_box(a, [x + draw(width) for x in a]))
    return draw(st.permutations(boxes))


@st.composite
def sheared_regions(draw):
    """A frame diag(d) + strictly upper shear, its boxes and a lattice
    basis of the same shape (lower shear), in 1 to 3 dimensions."""
    n = draw(st.integers(1, 3))
    scales = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                              Fraction(3, 2), Fraction(2)])

    def sheared(upper):
        d = [draw(scales) for _ in range(n)]
        return tuple(
            tuple(d[i] if i == j else (draw(small) if (j > i) == upper else Fraction(0))
                  for j in range(n))
            for i in range(n))

    return sheared(True), tuple(draw(region_boxes(n, extra=1))), sheared(False)


def test_overlap_names_the_least_pair():
    a = make_box([0, 0], [1, 1])
    b = make_box([5, 5], [7, 7])
    c = make_box([6, 6], [8, 8])
    d = make_box(["1/2", "1/2"], [6, 6])
    for boxes, msg in [((a, b, c, d), "boxes 0 and 3 overlap"),
                       ((b, a, c), "boxes 0 and 2 overlap"),
                       ((a, b, a), "boxes 0 and 2 overlap"),
                       ((a, make_box([1, 0], [2, 1]), make_box([0, 1], [1, 2])), None)]:
        assert oracles.all_pairs_overlap_message(boxes) == msg
        if msg is None:
            FrameRegion(identity(2), boxes)
        else:
            with pytest.raises(InvalidInput, match=f"^{msg}$"):
                FrameRegion(identity(2), boxes)


@given(st.integers(1, 3).flatmap(region_boxes))
def test_overlap_check_matches_all_pairs(boxes):
    n = len(boxes[0])
    expected = oracles.all_pairs_overlap_message(boxes)
    try:
        FrameRegion(identity(n), tuple(boxes))
    except InvalidInput as exc:
        assert str(exc) == expected
    else:
        assert expected is None


@given(sheared_regions(), st.lists(st.tuples(small, small, small), max_size=4))
def test_measure_and_contains_match_fraction_reference(case, offsets):
    frame, boxes, _ = case
    kept = [b for i, b in enumerate(boxes) if not any(boxes_overlap(b, c) for c in boxes[:i])]
    R = FrameRegion(frame, tuple(kept))
    volume = sum((box_volume(b) for b in kept), Fraction(0))
    assert R.measure == abs(oracles.fraction_det(frame)) * volume
    inverse = oracles.fraction_inverse(frame)
    # box corners and centres (on and inside faces), moved by small offsets
    n = len(frame)
    for b in kept:
        for coords in ([lo for lo, _ in b], [hi for _, hi in b], list(box_center(b))):
            for off in [(0,) * n] + [o[:n] for o in offsets]:
                point = mat_vec(frame, tuple(c + d for c, d in zip(coords, off)))
                local = [sum((a * x for a, x in zip(row, point)), Fraction(0)) for row in inverse]
                want = any(all(lo <= c < hi for c, (lo, hi) in zip(local, bx)) for bx in kept)
                assert R.contains(point) == want


def test_reduce_mod_refuses_a_basis_of_the_wrong_shape():
    R = FrameRegion(identity(2), (make_box([0, 0], [1, 1]),))
    with pytest.raises(InvalidInput, match="dimension"):
        reduce_mod(R, mat([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(InvalidInput, match="dimension"):
        reduce_mod(R, mat([[1, 0], [0, 1], [0, 0]]))


def test_reduce_mod_refuses_a_singular_basis():
    R = FrameRegion(mat([["1/2", 1], [0, 1]]), (make_box([0, 0], [1, 1]),))
    for basis in ([[1, 2], [2, 4]], [[0, 0], [0, 1]]):
        with pytest.raises(InvalidInput, match="nonsingular"):
            reduce_mod(R, mat(basis))


@given(sheared_regions())
def test_reduce_pieces_reconstruct_region(case):
    # a piece lies in refined-frame coordinates and its tag counts cell_basis
    # columns in ambient ones, so frame·center + cell_basis·shift is a point
    # of the region
    frame, boxes, basis = case
    kept = [b for i, b in enumerate(boxes) if not any(boxes_overlap(b, c) for c in boxes[:i])]
    R = FrameRegion(frame, tuple(kept))
    red = reduce_mod(R, basis)
    total = Fraction(0)
    for bx, shift in red.pieces:
        total += box_volume(bx)
        moved = [x + sum(red.cell_basis[i][j] * shift[j] for j in range(len(shift)))
                 for i, x in enumerate(mat_vec(red.frame, box_center(bx)))]
        assert R.contains(moved)
    assert total * abs_det(red.frame) == R.measure


@settings(max_examples=150)
@given(sheared_regions())
def test_reduce_mod_matches_fraction_reference(case):
    frame, boxes, basis = case
    expected = oracles.all_pairs_overlap_message(boxes)
    try:
        R = FrameRegion(frame, boxes)
    except InvalidInput as exc:
        assert str(exc) == expected
        return
    assert expected is None
    got = reduce_mod(R, basis)
    want = oracles.fraction_reduce_mod(R, basis)
    for name in ("frame", "torus", "levels", "uncovered", "pieces", "cell_basis"):
        assert getattr(got, name) == getattr(want, name), name
    assert list(got.levels) == list(want.levels)
    assert all(isinstance(x, Fraction)
               for cells in (got.uncovered, *got.levels.values())
               for cell in cells for iv in cell for x in iv)


def _disjoint(boxes):
    return [b for i, b in enumerate(boxes) if not any(boxes_overlap(b, c) for c in boxes[:i])]


@st.composite
def weighted_pieces(draw):
    """Bounds and up to 5 weighted pieces in 1 to 3 dimensions, with int
    or Fraction corners and weights; pieces may overlap each other."""
    n = draw(st.integers(1, 3))
    value = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))

    def box():
        ends = [sorted(draw(st.lists(value, min_size=2, max_size=2, unique=True)))
                for _ in range(n)]
        return tuple((lo, hi) for lo, hi in ends)

    weight = st.one_of(st.integers(-2, 3), st.fractions(-2, 3, max_denominator=5))
    return [(box(), draw(weight)) for _ in range(draw(st.integers(0, 5)))], box()


@settings(max_examples=30)
@given(weighted_pieces())
def test_compressed_cover_matches_cell_by_cell_reference(case):
    pieces, bounds = case
    got = list(compressed_cover(pieces, bounds))
    want = list(oracles.cell_by_cell_cover(pieces, bounds))
    assert got == want
    assert [type(w) for _, w in got] == [type(w) for _, w in want]


@st.composite
def covered_twice_or_not(draw):
    """A sheared case whose region may also hold a copy of its first box
    moved by a lattice vector, which covers that box's points twice
    modulo the lattice."""
    frame, boxes_, basis = draw(sheared_regions())
    n = len(frame)
    z = draw(st.tuples(*[st.integers(-2, 2)] * n))
    if any(z) and draw(st.booleans()):
        # the lattice vector basis·z in frame coordinates
        t = mat_vec(oracles.fraction_inverse(frame), mat_vec(basis, z))
        boxes_ = list(boxes_) + [tuple((lo + d, hi + d) for (lo, hi), d in zip(boxes_[0], t))]
    return frame, tuple(_disjoint(boxes_)), basis


@settings(max_examples=40)
@given(covered_twice_or_not())
def test_witnesses_and_boundary_counts_match_fraction_levels(case):
    # regions with gaps, double covers or both; the tiling and packing
    # witnesses and the boundary count are read from one Fraction reduction
    frame, boxes_, basis = case
    R = FrameRegion(frame, boxes_)
    L = EucLattice(basis)
    red = oracles.fraction_reduce_mod(R, basis)
    for check, exact in ((verify_tiling_exact, True), (verify_packing_exact, False)):
        got = check(R, L)
        want = oracles.fraction_multiplicity_witness(red, exact)
        assert got.ok == (want is None)
        assert got.witness == want
    assert boundary_count(L, R) == BoundaryCount(*oracles.fraction_boundary_count(red))


def test_reduce_mod_refuses_pieces_over_the_budget():
    # one long box cut at every unit of Z^2: 10^7 pieces
    R = FrameRegion(identity(2), (make_box([0, 0], [10_000_000, 1]),))
    with pytest.raises(TooLarge, match="^up to 10000000 pieces exceed the budget of"):
        reduce_mod(R, identity(2))


def test_reduce_mod_refuses_a_cover_over_the_budget():
    # 600 disjoint squares with distinct fractional corners cut the unit
    # torus of Z^2 at 1200 points on each axis
    squares = [make_box([2 * k + Fraction(k, 1201), Fraction(k, 1201)],
                        [2 * k + Fraction(k + 600, 1201), Fraction(k + 600, 1201)])
               for k in range(600)]
    R = FrameRegion(identity(2), tuple(squares))
    with pytest.raises(TooLarge, match="cover cells exceed the budget of"):
        reduce_mod(R, identity(2))
    with pytest.raises(TooLarge, match="cover cells exceed the budget of"):
        verify_tiling_exact(R, EucLattice.standard(2))


# ------------------------------------------------- corners read as int pairs


def _outcome(parse, x):
    """(numerator, denominator) of parse(x), or the type and message of
    what it raises."""
    try:
        value = parse(x)
    except Exception as exc:
        return type(exc), str(exc)
    return (value.numerator, value.denominator) if isinstance(value, Fraction) else value


_digits = st.lists(st.sampled_from(list("0123456789") + ["\u0663", "\uff15", "\u00b2"]),
                   max_size=3).map("".join)
corner_strings = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", " ", "\t", "\n ", "\u3000"]),
    st.sampled_from(["", "-", "+", "--", "+-"]),
    _digits,
    st.sampled_from(["", "_"]),  # 1_000
    _digits,
    st.sampled_from(["", "."]),
    _digits,
    st.sampled_from(["", "e", "E-", "e+"]),
    _digits,
    st.sampled_from(["", "/", "/-", "/+", " /", "/_"]),  # p/0, 1/-2
    _digits,
    st.sampled_from(["", " ", "\r\n", "\u2003"]),
)


@settings(max_examples=400)
@given(st.one_of(corner_strings, st.from_regex(r"\s*-?[0-9]{1,4}(/[0-9]{1,3})?\s*", fullmatch=True),
                 st.text(max_size=6), st.booleans(), st.integers(), st.floats(),
                 st.fractions(), st.none()))
@example("2/4")
@example(" -0 ")
@example("-12/8")
@example("1/0")
@example("1/-2")
@example("\u0663/4")
def test_corner_ratio_matches_frac(x):
    assert _outcome(ratio, x) == _outcome(frac, x)


def test_region_identity_reads_the_grid():
    # "2/4", Fraction(1, 2) and ints of the same values build one region
    frame = identity(2)
    regions = [FrameRegion(frame, ((("2/4", " 6/4 "), ("-4/2", "3")),)),
               FrameRegion(frame, (((Fraction(1, 2), Fraction(3, 2)),
                                    (Fraction(-2), Fraction(3))),)),
               FrameRegion(frame, ((("1/2", Fraction(3, 2)), (-2, 3)),))]
    assert regions[0] == regions[1] == regions[2]
    assert len({hash(R) for R in regions}) == 1
    assert regions[0].boxes == (make_box(["1/2", -2], ["3/2", 3]),)
    assert regions[0].measure == 5
    assert regions[0] != FrameRegion(frame, ((("1/2", 2), (-2, 3)),))
    assert regions[0] != FrameRegion(mat([[2, 0], [0, 1]]), regions[0].boxes)
    # a box given as a one-shot iterator yields its low corners only
    with pytest.raises(InvalidInput, match="^box corner dimensions differ$"):
        FrameRegion(frame, (iter([(0, 1), (0, 1)]),))


_good = st.sampled_from([0, 1, -1, 2, "1/2", "2/4", " 3/2 ", "-0", "4/2", "-7/3",
                         Fraction(1, 3), Fraction(5, 2)])
_bad = st.sampled_from(["1/0", "x", "1.5", "1_0", "1/-2", True, 0.5, None])


@st.composite
def regions_with_faults(draw):
    """A dimension and one to four boxes of valid, often overlapping,
    corners, with up to three faults injected into them: an unreadable
    corner, lo > hi or lo = hi on an axis, or an axis too many or too
    few."""
    n = draw(st.integers(1, 3))
    boxes = [[sorted(draw(st.lists(_good, min_size=2, max_size=2, unique_by=frac)), key=frac)
              for _ in range(n)]
             for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        box = draw(st.sampled_from(boxes))
        axis = draw(st.integers(0, len(box) - 1))
        fault = draw(st.sampled_from(["corner", "order", "empty", "dimension"]))
        if fault == "corner":
            box[axis][draw(st.integers(0, 1))] = draw(_bad)
        elif fault == "order":
            box[axis].reverse()
        elif fault == "empty":
            box[axis][1] = box[axis][0]
        elif len(box) > 1 and draw(st.booleans()):
            box.pop(axis)
        else:
            box.append(["0", "1"])
    return n, tuple(tuple(map(tuple, b)) for b in boxes)


@settings(max_examples=200)
@given(regions_with_faults())
def test_region_build_matches_the_fraction_build(case):
    # the same boxes, measure and identity as a build through frac, or
    # the same first error
    n, boxes = case
    frame = tuple(tuple(Fraction(3, 2) if i == j else Fraction(int(i < j)) for j in range(n))
                  for i in range(n))
    try:
        want = oracles.fraction_region_boxes(n, boxes)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            FrameRegion(frame, boxes)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    R = FrameRegion(frame, boxes)
    assert R.boxes == want
    assert R.measure == Fraction(3, 2) ** n * sum((box_volume(b) for b in want), Fraction(0))
    same = FrameRegion(frame, want)
    assert R == same and hash(R) == hash(same)


@pytest.mark.parametrize("boxes, error, message", [
    # the low corners are read before the high ones
    ((((0, "x"), ("1/0", 1)),), ZeroDivisionError, "Fraction(1, 0)"),
    # a box is read whole before its order is checked
    ((((0, "1/0"), (1, 1)),), ZeroDivisionError, "Fraction(1, 0)"),
    # equal values in different spellings make an empty axis
    ((((0, 1), ("2/4", "1/2")),), InvalidInput, "box needs lo < hi on every axis"),
    # box by box: the order of box 0 before the corners of box 1
    ((((1, 0), (0, 1)), ((0, "x"), (0, 1))), InvalidInput,
     "box needs lo < hi on every axis"),
    # the dimension is checked once every box is read
    ((((0, 1), (0, 1), (0, 1)), ((1, 0), (0, 1))), InvalidInput,
     "box needs lo < hi on every axis"),
    ((((0, 1), (0, 1), (0, 1)), ((0, 2), (0, 2)), ((1, 3), (1, 3))), InvalidInput,
     "box dimension does not match the frame"),
    ((((0, 2), (0, 2)), ((1, 3), (1, 3))), InvalidInput, "boxes 0 and 1 overlap"),
])
def test_region_raises_the_first_error_of_the_fraction_build(boxes, error, message):
    for build in (lambda: FrameRegion(identity(2), boxes),
                  lambda: oracles.fraction_region_boxes(2, boxes)):
        with pytest.raises(error) as got:
            build()
        assert type(got.value) is error and str(got.value) == message


def domino_layout(rng, side, flips):
    """A domino tiling of the side x side square: rows of horizontal
    dominoes, then `flips` random turns of a 2 x 2 square covered by two
    parallel dominoes, in random order."""
    owner, dominoes = {}, []
    for y in range(side):
        for x in range(0, side, 2):
            owner[x, y] = owner[x + 1, y] = len(dominoes)
            dominoes.append(((x, y), (x + 1, y)))
    for _ in range(flips):
        x, y = rng.randrange(side - 1), rng.randrange(side - 1)
        a, b, c, d = owner[x, y], owner[x + 1, y], owner[x, y + 1], owner[x + 1, y + 1]
        if a == b and c == d:
            dominoes[a], dominoes[c] = ((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1))
            owner[x, y + 1], owner[x + 1, y] = a, c
        elif a == c and b == d:
            dominoes[a], dominoes[b] = ((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1))
            owner[x + 1, y], owner[x, y + 1] = a, b
    rng.shuffle(dominoes)
    return [((p[0], q[0] + 1), (p[1], q[1] + 1)) for p, q in dominoes]


@given(st.integers(2, 8), st.integers(0, 2**32), st.booleans())
def test_overlap_sweep_matches_all_pairs_on_domino_layouts(half, seed, inject):
    # flipped dominoes chain-overlap on both axes, so the whole layout is
    # one run and only the sweep separates its boxes
    rng = random.Random(seed)
    side = 2 * half
    boxes = domino_layout(rng, side, 10 * side * side)
    if inject:
        w, h = rng.choice([(1, 1), (2, 1), (1, 2)])
        x, y = rng.randrange(side - w + 1), rng.randrange(side - h + 1)
        boxes.insert(rng.randrange(len(boxes) + 1), ((x, x + w), (y, y + h)))
    expected = oracles.all_pairs_overlap_message(boxes)
    assert (expected is not None) == inject
    try:
        FrameRegion(identity(2), tuple(boxes))
    except InvalidInput as exc:
        assert str(exc) == expected
    else:
        assert expected is None
