from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from tessella.linalg import (
    IntBasis,
    denominator_lcm,
    det,
    det_adj,
    floor_frac,
    frac,
    gram_schmidt,
    hnf,
    hnf_rational,
    identity,
    integer_form,
    mat,
    mat_inv,
    mat_mul,
    mat_vec,
    transpose,
    vec,
)

import oracles

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=8)


def square_int_matrices(n, lo=-6, hi=6):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n),
        min_size=n, max_size=n)


def _columns(rows):
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


def _in_lattice(cols, v):
    """v is an integer combination of the columns."""
    import sympy

    B = sympy.Matrix([list(c) for c in cols]).T
    t = B.solve(sympy.Matrix([sympy.Rational(x) for x in v]))
    return all(sympy.Rational(x).q == 1 for x in t)


def test_frac_accepts_ints_strings_fractions():
    assert frac(3) == 3
    assert frac("2/5") == Fraction(2, 5)
    assert frac(Fraction(7, 2)) == Fraction(7, 2)


def test_det_frozen_values():
    assert det(identity(3)) == 1
    assert det(mat([[1, 2], [3, 4]])) == -2
    assert det(mat([["1/2", 0], [0, 2]])) == 1


@given(square_int_matrices(3))
def test_det_matches_sympy(rows):
    assert det(mat(rows)) == oracles.sympy_det(rows)


@given(square_int_matrices(3))
def test_inverse_roundtrip(rows):
    m = mat(rows)
    if det(m) == 0:
        with pytest.raises(ValueError):
            mat_inv(m)
    else:
        assert mat_mul(m, mat_inv(m)) == identity(3)
        assert mat_mul(mat_inv(m), m) == identity(3)


def test_plain_int_entries_stay_exact():
    # plain int entries must never reach a float division
    rows = [[-12, -4], [7, 2]]
    d = det(rows)
    assert d == Fraction(4) and isinstance(d, Fraction)
    inv = mat_inv(rows)
    want = sympy.Matrix(rows).inv()
    assert all(isinstance(x, Fraction) for row in inv for x in row)
    assert [list(row) for row in inv] == [
        [Fraction(str(want[i, j])) for j in range(2)] for i in range(2)]


@given(st.integers(1, 4).flatmap(square_int_matrices))
def test_det_and_inverse_of_raw_int_lists(rows):
    d = det(rows)
    assert isinstance(d, Fraction)
    assert d == oracles.sympy_det(rows)
    if d == 0:
        with pytest.raises(ValueError):
            mat_inv(rows)
    else:
        inv = mat_inv(rows)
        assert all(isinstance(x, Fraction) for row in inv for x in row)
        assert mat_mul(mat(rows), inv) == identity(len(rows))


def test_bool_entries_are_refused():
    for f in (det, mat_inv, integer_form):
        with pytest.raises(ValueError):
            f([[True, 0], [0, 1]])


def test_non_square_is_refused():
    with pytest.raises(ValueError, match="non-square"):
        det([[1, 2]])
    with pytest.raises(ValueError, match="non-square"):
        mat_inv([[1, 2]])


@st.composite
def kernel_matrices(draw):
    """Integer n x n matrices, n = 0..5, with many zero entries so that
    pivots need row swaps; about a third of them are made singular by
    replacing one row with a combination of the others."""
    n = draw(st.integers(0, 5))
    entry = st.just(0) | st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rows[k] = [sum(c * rows[i][j] for i, c in enumerate(coeffs) if i != k)
                   for j in range(n)]
    return rows


def _int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@given(kernel_matrices())
def test_det_adj_matches_sympy(rows):
    d, adj = det_adj(rows)
    assert type(d) is int and d == oracles.sympy_det(rows)
    n = len(rows)
    if d == 0:
        assert adj is None
        return
    assert all(type(x) is int for row in adj for x in row)
    scalar = [[d * (i == j) for j in range(n)] for i in range(n)]
    assert _int_mul(adj, rows) == scalar
    assert _int_mul(rows, adj) == scalar


def test_det_adj_frozen_values():
    assert det_adj(()) == (1, ())
    assert det_adj(((1, 2), (3, 4))) == (-2, ((4, -2), (-3, 1)))
    # a row swap at the first pivot flips the sign of both
    assert det_adj(((0, 1), (1, 0))) == (-1, ((0, -1), (-1, 0)))
    assert det_adj(((1, 2), (2, 4))) == (0, None)


@given(st.integers(0, 3).flatmap(lambda n: st.lists(
    st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=3)))
def test_integer_form_is_least_scale(rows):
    d, m = integer_form(rows)
    assert m == tuple(tuple(int(x * d) for x in row) for row in rows)
    assert all(x * d == y for row, irow in zip(rows, m) for x, y in zip(row, irow))
    for k in range(1, d):
        assert any((x * k).denominator != 1 for row in rows for x in row)


@st.composite
def rational_bases(draw):
    """Nonsingular n x n matrices, n = 1..3, with entries of mixed
    denominators; the first row's sign is drawn, so either sign of the
    determinant is as likely."""
    n = draw(st.integers(1, 3))
    entry = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4, 6]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n,
                         max_size=n).filter(lambda r: oracles.fraction_det(r) != 0))
    sign = draw(st.sampled_from([1, -1]))
    return [[sign * x for x in rows[0]]] + rows[1:]


@given(rational_bases().flatmap(lambda b: st.tuples(
    st.just(b),
    st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
             min_size=len(b), max_size=len(b)),
    st.lists(st.lists(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
                      min_size=2, max_size=2), min_size=len(b), max_size=len(b)))))
def test_int_basis_matches_fraction_reference(case):
    basis, z, shift = case
    form = IntBasis.of(basis)
    assert form.det == oracles.fraction_det(basis)
    assert form.inverse() == tuple(map(tuple, oracles.fraction_inverse(basis)))
    # M = B z lies in the lattice; M + shift does exactly when B^-1 shift
    # is integral, which a non-integral shift usually breaks
    inside = mat_mul(mat(basis), mat(z))
    for M in (inside, tuple(tuple(x + y for x, y in zip(r, t)) for r, t in zip(inside, shift))):
        want = [[sum((a * M[k][j] for k, a in enumerate(row)), Fraction(0)) for j in range(2)]
                for row in oracles.fraction_inverse(basis)]
        N, q = form.solve(M)
        assert q > 0 and [[Fraction(x, q) for x in row] for row in N] == want
        if all(x.denominator == 1 for row in want for x in row):
            assert form.coordinates(M) == [[int(x) for x in row] for row in want]
        else:
            assert form.coordinates(M) is None
    assert form.coordinates(inside) == [list(row) for row in z]


def test_int_basis_frozen_values():
    # det -1/2, mixed denominators: B^-1 = [[0, 1], [2, 0]]
    form = IntBasis.of([["0", "1/2"], ["1", "0"]])
    assert (form.scale, form.rows, form.det_int) == (2, ((0, 1), (2, 0)), -2)
    assert form.det == Fraction(-1, 2)
    assert form.inverse() == ((0, 1), (2, 0))
    assert form.coordinates([["1/2"], [0]]) == [[0], [1]]
    assert form.coordinates([["1/4"], [0]]) is None
    assert IntBasis.of([[1, 2], [2, 4]]) is None
    with pytest.raises(ValueError, match="shape"):
        form.solve([[1]])


def test_hnf_frozen_shape():
    # columns (2,1),(0,3); lower triangular, diag positive, off-diag reduced
    assert hnf([[2, 0], [1, 3]]) == [[2, 0], [1, 3]]
    assert hnf([[0, 2], [3, 1]]) == [[2, 0], [1, 3]]
    # redundant generators collapse to the same basis
    assert hnf([[2, 0, 2], [1, 3, 4]]) == [[2, 0], [1, 3]]


def test_hnf_rejects_deficient_rank():
    with pytest.raises(ValueError):
        hnf([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        hnf([[1, 0], [0, 0]])


@given(square_int_matrices(3))
def test_hnf_same_lattice_as_sympy(rows):
    if oracles.sympy_det(rows) == 0:
        return
    h = hnf(rows)
    s = oracles.sympy_hnf_columns(_columns(rows))
    # conventions differ; compare the lattices, not the matrices
    assert abs(oracles.sympy_det(h)) == abs(oracles.sympy_det(rows))
    for c in s:
        assert _in_lattice(_columns(h), c)
    for c in _columns(h):
        assert _in_lattice(s, c)


@given(square_int_matrices(3))
def test_hnf_is_triangular_reduced(rows):
    if oracles.sympy_det(rows) == 0:
        return
    h = hnf(rows)
    n = len(h)
    for r in range(n):
        assert h[r][r] > 0
        for j in range(n):
            if j > r:
                assert h[r][j] == 0
            elif j < r:
                assert 0 <= h[r][j] < h[r][r]


def test_hnf_rational_is_generator_independent():
    a = hnf_rational([(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(2))])
    b = hnf_rational([(Fraction(1, 2), Fraction(2)), (Fraction(1, 2), Fraction(4))])
    assert a == b


@given(square_int_matrices(2), st.integers(1, 5))
def test_hnf_rational_scaling(rows, q):
    if oracles.sympy_det(rows) == 0:
        return
    cols = [tuple(Fraction(x, q) for x in c) for c in _columns(rows)]
    h = hnf_rational(cols)
    scaled = hnf_rational([vec_scale_q(c, q) for c in cols])
    assert scaled == tuple(tuple(x * q for x in row) for row in h)


def vec_scale_q(c, q):
    return tuple(x * q for x in c)


def test_gram_schmidt_known_values():
    # orthogonal columns pass through unchanged
    assert gram_schmidt([(1, 0), (0, 3)]) == ([1, 9], [[], [0]])
    # (1,1) against (1,0) leaves (0,1)
    assert gram_schmidt([(1, 0), (1, 1)]) == ([1, 1], [[], [1]])


@given(square_int_matrices(3, -4, 4))
def test_gram_schmidt_product_is_det_squared(rows):
    m = mat(rows)
    d = det(m)
    if d == 0:
        return
    sq, _ = gram_schmidt(_columns(rows))
    prod = Fraction(1)
    for s in sq:
        prod *= s
    assert prod == d * d


def test_floor_frac():
    assert floor_frac(Fraction(7, 2)) == 3
    assert floor_frac(Fraction(-7, 2)) == -4
    assert floor_frac(Fraction(4)) == 4


@given(rationals)
def test_floor_frac_bounds(x):
    k = floor_frac(x)
    assert k <= x < k + 1


def test_denominator_lcm():
    assert denominator_lcm([Fraction(1, 2), Fraction(1, 3)]) == 6
    assert denominator_lcm([Fraction(2), Fraction(4)]) == 1


def test_mat_vec_transpose():
    m = mat([[1, 2], [3, 4]])
    assert mat_vec(m, vec([1, 1])) == (3, 7)
    assert transpose(m) == ((1, 3), (2, 4))


# Strings near the "p" / "p/q" fast path of `frac`: signs, zeros, ASCII and
# other whitespace, decimals, exponents, underscores and non-ASCII digits.
ratio_strings = st.lists(
    st.sampled_from(["0", "1", "7", "00", "-", "+", "/", " ", "\t", "\n", " ",
                     " ", "\x1c", ".", "e", "_", "٣", "x"]),
    max_size=8).map("".join)


def _outcome(f, s):
    try:
        return "value", f(s)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@given(st.one_of(ratio_strings, st.builds("{}/{}".format, st.integers(-10 ** 30, 10 ** 30),
                                          st.integers(0, 10 ** 30))))
def test_frac_of_a_string_is_fraction_of_it_stripped(s):
    assert _outcome(frac, s) == _outcome(lambda t: Fraction(t.strip()), s)


@pytest.mark.parametrize("s, want", [
    ("1/0", ZeroDivisionError), ("5/00", ZeroDivisionError), ("1.5", Fraction(3, 2)),
    ("1e3", Fraction(1000)), ("٣", Fraction(3)), (" -4/6 ", Fraction(-2, 3)),
    ("+2", Fraction(2)), ("1 /2", ValueError)])
def test_frac_strings_beside_the_fast_path(s, want):
    if isinstance(want, Fraction):
        assert frac(s) == want
    else:
        with pytest.raises(want):
            frac(s)
