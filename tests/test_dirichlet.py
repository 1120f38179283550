import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, strategies as st

from tessella.dirichlet import _lll, _relevant_vectors, dirichlet_domain
from tessella.errors import DimensionTooLarge, InvalidInput
from tessella.lattices import EucLattice, covolume
from tessella.linalg import det, mat

import oracles


def L(*cols):
    n = len(cols[0])
    return EucLattice([[Fraction(cols[j][i]) for j in range(len(cols))]
                       for i in range(n)])


def test_square_lattice_cell():
    cell = dirichlet_domain(EucLattice.standard(2))
    assert cell.volume == 1
    assert sorted(cell.vertices) == sorted([
        (Fraction(s1, 2), Fraction(s2, 2)) for s1 in (-1, 1) for s2 in (-1, 1)
    ])
    assert len(cell.halfspaces) == 4
    assert cell.contains((0, 0))
    assert cell.contains((Fraction(1, 2), Fraction(1, 2)))  # closed cell
    assert not cell.contains((Fraction(3, 5), 0))


def test_interval_cell():
    cell = dirichlet_domain(L(("3/2",)))
    assert cell.volume == Fraction(3, 2)
    assert sorted(cell.vertices) == [(Fraction(-3, 4),), (Fraction(3, 4),)]


def test_hexagonal_cell():
    cell = dirichlet_domain(L((2, 1), (1, 2)))
    assert cell.volume == 3
    assert len(cell.vertices) == 6
    assert len(cell.halfspaces) == 6


def test_rhombic_dodecahedral_cell():
    # face-centered-cubic style basis: nearest neighbours in 12 directions
    cell = dirichlet_domain(L((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    assert cell.volume == 2
    assert len(cell.halfspaces) == 12
    assert len(cell.vertices) == 14


def test_kept_vectors_are_the_facet_normals():
    # Z^3 has 26 weakly relevant vectors, (1, 1, 0) and (1, 1, 1) among
    # them, but 6 facets; FCC has 12 facets, and (2, 0, 0) is weakly
    # relevant without being one
    def signed_permutations(v):
        return sorted({tuple(s * x for s, x in zip(signs, p))
                       for p in permutations(v) for signs in product((1, -1), repeat=3)})

    cube = _relevant_vectors(_lll([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert cube == signed_permutations((1, 0, 0))
    fcc = _relevant_vectors(_lll([(1, 1, 0), (1, 0, 1), (0, 1, 1)]))
    assert fcc == signed_permutations((1, 1, 0))


def test_cell_is_shifted_with_base_point():
    lat = L((2, 1), (1, 2))
    origin = dirichlet_domain(lat)
    moved = dirichlet_domain(lat, ("1/3", "2/3"))
    shift = (Fraction(1, 3), Fraction(2, 3))
    assert moved.volume == origin.volume
    assert sorted(moved.vertices) == sorted(
        tuple(v + s for v, s in zip(vert, shift)) for vert in origin.vertices)


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        dirichlet_domain(EucLattice.standard(4))


def test_base_point_dimension_checked():
    with pytest.raises(ValueError):
        dirichlet_domain(EucLattice.standard(2), (0, 0, 0))


def central_symmetry_holds(cell, center):
    verts = set(cell.vertices)
    mirrored = {
        tuple(2 * c - v for c, v in zip(center, vert)) for vert in verts
    }
    return mirrored == verts


def random_lattice_2d(rng):
    while True:
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(2)] for _ in range(2)]
        try:
            return EucLattice(rows)
        except InvalidInput:
            continue


def test_random_cells_have_covolume_and_symmetry():
    rng = random.Random(59)
    for _ in range(30):
        lat = random_lattice_2d(rng)
        cell = dirichlet_domain(lat)
        assert cell.volume == covolume(lat)
        assert central_symmetry_holds(cell, (0, 0))
        # the closed cell contains the origin strictly inside
        assert cell.contains((0, 0))
        assert all(dot_lt(nrm, off) for nrm, off in cell.halfspaces)


def dot_lt(nrm, off):
    return 0 < off  # origin strictly satisfies dot(n, 0) = 0 < off


def test_volumes_match_hull_oracle():
    rng = random.Random(61)
    for _ in range(10):
        lat = random_lattice_2d(rng)
        cell = dirichlet_domain(lat)
        hull = oracles.hull_volume([tuple(map(float, v))
                                    for v in cell.vertices])
        assert abs(float(cell.volume) - hull) < 1e-9


def test_3d_volume_matches_hull_oracle():
    cell = dirichlet_domain(L((2, 0, 1), (0, 1, 0), (0, 0, 1)))
    assert cell.volume == 2
    hull = oracles.hull_volume([tuple(map(float, v)) for v in cell.vertices])
    assert abs(float(cell.volume) - hull) < 1e-9
    assert central_symmetry_holds(cell, (0, 0, 0))


def test_skewed_basis_same_cell():
    # same lattice, wildly skewed generators: cell must be identical
    a = L((2, 1), (1, 2))
    b = L((2, 1), (5, 4))  # (5,4) = 2*(2,1) + (1,2), unimodular change
    assert a.same_lattice(b)
    assert sorted(dirichlet_domain(a).vertices) == \
        sorted(dirichlet_domain(b).vertices)


def random_lattice_3d(rng):
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(3)] for _ in range(3)]
        try:
            return EucLattice(rows)
        except InvalidInput:
            continue


def test_3d_volumes_match_hull_oracle_on_random_bases():
    rng = random.Random(67)
    for _ in range(8):
        lat = random_lattice_3d(rng)
        cell = dirichlet_domain(lat)
        assert cell.volume == covolume(lat)
        hull = oracles.hull_volume([tuple(map(float, v))
                                    for v in cell.vertices])
        assert abs(float(cell.volume) - hull) < 1e-9 * max(1.0, hull)
        assert central_symmetry_holds(cell, (0, 0, 0))


def test_cost_is_set_by_the_lattice_not_its_basis():
    # Z^3 with generators of length about 60: the enumeration box of the
    # given basis would hold millions of points; the reduced basis does not
    skewed = EucLattice([[1, 60, 0], [0, 1, 60], [0, 0, 1]])
    assert skewed.same_lattice(EucLattice.standard(3))
    assert dirichlet_domain(skewed) == dirichlet_domain(EucLattice.standard(3))


# ------------------------------------------- differential against Fractions

small_q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
positive_q = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))


@st.composite
def rational_bases(draw, n):
    rows = draw(st.lists(st.lists(small_q, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(det(mat(rows)) != 0)
    return rows


@st.composite
def diagonal_bases(draw, n):
    d = draw(st.lists(positive_q, min_size=n, max_size=n))
    return [[d[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]


@st.composite
def skewed_bases(draw, n):
    """A diagonal or random basis times a product of elementary
    unimodular column operations."""
    rows = draw(st.one_of(diagonal_bases(n), rational_bases(n)))
    for _ in range(draw(st.integers(1, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(-2, 2))
        rows = [[r[c] + (k * r[j] if c == i else 0) for c in range(n)] for r in rows]
    return rows


@st.composite
def lattices_with_base_points(draw):
    n = draw(st.integers(1, 3))
    rows = draw(st.one_of(rational_bases(n), diagonal_bases(n), skewed_bases(n)))
    x0 = draw(st.none() | st.lists(small_q, min_size=n, max_size=n))
    return rows, x0


@given(lattices_with_base_points())
def test_cell_equals_fraction_reference(case):
    rows, x0 = case
    lat = EucLattice(rows)
    cell = dirichlet_domain(lat, x0)
    ref = oracles.fraction_dirichlet_domain(lat, x0)
    assert cell.halfspaces == ref.halfspaces
    assert cell.vertices == ref.vertices
    assert cell.volume == ref.volume
