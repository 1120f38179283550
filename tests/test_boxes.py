import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tessella.boxes import (
    FrameRegion,
    box_center,
    box_volume,
    boxes_overlap,
    compressed_cover,
    make_box,
    reduce_mod,
)
from tessella.errors import InvalidInput
from tessella.linalg import identity, mat, mat_vec

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
