import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from liestrata import (DimensionMismatchError, Triple, gf2_column_space_contains,
                       gf2_coset_transversal, gf2_rank, gf2_root_matrix,
                       in_column_space, left_null_basis, rank, root_matrix,
                       root_vector, span_equals)
from liestrata.linalg import gf2_column_space, rref, transpose

from conftest import random_index_set


def gf2_coset_representative(mat, v):
    """The canonical transversal element in the same Col(mat)-coset as v."""
    basis, pivots = gf2_column_space(mat)
    word = sum((bit & 1) << i for i, bit in enumerate(v))
    for b, p in zip(basis, pivots):
        if (word >> p) & 1:
            word ^= b
    return tuple((word >> i) & 1 for i in range(mat.nrows))


def test_root_vector_examples():
    assert root_vector(Triple(1, 2, 3), 4) == (1, 1, -1, 0)
    assert root_vector(Triple(1, 3, 4), 4) == (1, 0, 1, -1)
    assert root_vector(Triple(2, 3, 4), 4) == (0, 1, 1, -1)


def test_root_vector_coinciding_indices_sum():
    # upsilon-style triple with k = i
    assert root_vector(Triple(1, 2, 1), 3) == (0, 1, 0)


def test_root_matrix_filiform4(filiform4):
    assert root_matrix(filiform4) == ((1, 1, -1, 0), (1, 0, 1, -1))
    assert gf2_root_matrix(filiform4).dense() == ((1, 1, 1, 0), (1, 0, 1, 1))


def test_root_matrix_heisenberg5(heisenberg5):
    assert root_matrix(heisenberg5) == ((1, 1, 0, 0, -1), (0, 0, 1, 1, -1))


def test_kernel_trivial_for_rank_m(filiform4, heisenberg5):
    assert left_null_basis(root_matrix(filiform4)) == ()
    assert left_null_basis(root_matrix(heisenberg5)) == ()


def test_kernel_one_quad_mult2(one_quad_mult2):
    basis = left_null_basis(root_matrix(one_quad_mult2))
    assert span_equals(basis, [(1, -1, 0, 0, -1, 1)])


def test_kernel_one_quad_mult3(one_quad_mult3):
    basis = left_null_basis(root_matrix(one_quad_mult3))
    assert len(basis) == 2
    assert span_equals(basis, [(0, 1, 0, -1, -1, 1, 0),
                               (1, 0, 0, -1, -1, 0, 1)])


def test_in_column_space(one_quad_mult2):
    y = root_matrix(one_quad_mult2)
    assert in_column_space(y, [0] * 6)
    assert not in_column_space(y, (1, -1, 0, 0, -1, 1))
    first_col = [row[0] for row in y]
    assert in_column_space(y, first_col)
    with pytest.raises(DimensionMismatchError):
        in_column_space(y, [0] * 5)


def test_gf2_ranks(one_quad_mult2, one_quad_mult3):
    assert gf2_rank(gf2_root_matrix(one_quad_mult2)) == 5
    assert gf2_rank(gf2_root_matrix(one_quad_mult3)) == 5


def test_gf2_column_space_contains_zero(one_quad_mult2):
    yhat = gf2_root_matrix(one_quad_mult2)
    assert gf2_column_space_contains(yhat, [0] * 6)
    with pytest.raises(DimensionMismatchError):
        gf2_column_space_contains(yhat, [0] * 7)


def test_transversals_match_fixture_cosets(filiform4, one_quad_mult2,
                                           one_quad_mult3):
    assert gf2_coset_transversal(gf2_root_matrix(filiform4)) == ((0, 0),)
    yhat = gf2_root_matrix(one_quad_mult2)
    trans = gf2_coset_transversal(yhat)
    assert len(trans) == 2
    expected = [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]
    for want in expected:
        assert any(gf2_column_space_contains(
            yhat, tuple(x ^ y for x, y in zip(want, got))) for got in trans)
    yhat3 = gf2_root_matrix(one_quad_mult3)
    trans3 = gf2_coset_transversal(yhat3)
    assert len(trans3) == 4
    span = [(0,) * 7,
            (0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 1, 1)]
    for want in span:
        assert any(gf2_column_space_contains(
            yhat3, tuple(x ^ y for x, y in zip(want, got))) for got in trans3)


def test_row_sum_property_random():
    # every root-matrix row sums to 1, so Y * ones = ones
    rng = random.Random(11)
    for _ in range(200):
        lam = random_index_set(rng)
        for row in root_matrix(lam):
            assert sum(row) == 1


def test_rank_nullity_random():
    rng = random.Random(12)
    for _ in range(100):
        lam = random_index_set(rng)
        y = root_matrix(lam)
        if not y:
            continue
        assert rank(y) + len(left_null_basis(y)) == len(y)


def test_kernel_primitive_and_exact():
    rng = random.Random(13)
    for _ in range(100):
        lam = random_index_set(rng)
        y = root_matrix(lam)
        yt = transpose(y)
        for w in left_null_basis(y):
            assert all(sum(r[c] * w[c] for c in range(len(w))) == 0
                       for r in yt)
            g = 0
            for x in w:
                g = gcd(g, abs(x))
            assert g == 1


def test_transversal_partitions_exhaustively():
    rng = random.Random(14)
    checked = 0
    while checked < 12:
        lam = random_index_set(rng, n_max=6, size_max=8)
        yhat = gf2_root_matrix(lam)
        m = yhat.nrows
        if m == 0 or m > 12:
            continue
        checked += 1
        trans = gf2_coset_transversal(yhat)
        assert len(trans) == 2 ** (m - gf2_rank(yhat))
        for a in range(len(trans)):
            for b in range(a + 1, len(trans)):
                diff = tuple(x ^ y for x, y in zip(trans[a], trans[b]))
                assert not gf2_column_space_contains(yhat, diff)
        for word in range(1 << m):
            v = tuple((word >> i) & 1 for i in range(m))
            rep = gf2_coset_representative(yhat, v)
            assert rep in trans
            matches = [
                t for t in trans
                if gf2_column_space_contains(
                    yhat, tuple(x ^ y for x, y in zip(v, t)))
            ]
            assert matches == [rep]


def test_span_equals_basics():
    assert span_equals([(1, 0), (0, 1)], [(1, 1), (1, -1)])
    assert not span_equals([(1, 0)], [(0, 1)])
    assert span_equals([], [])


ENTRIES = st.one_of(st.integers(-3, 3),
                    st.fractions(-3, 3, max_denominator=4))


@st.composite
def rational_matrices(draw):
    """Integer or Fraction matrices, often rank-deficient.

    Products of an m x d and a d x c factor have rank at most d, so zero
    pivots and skipped columns come up; duplicate and zero rows are mixed
    in afterwards.
    """
    m, c, d = draw(st.integers(0, 7)), draw(st.integers(0, 7)), \
        draw(st.integers(0, 4))
    entry = draw(st.sampled_from([st.integers(-3, 3), ENTRIES]))
    if draw(st.booleans()):
        left = draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                             min_size=m, max_size=m))
        right = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                              min_size=d, max_size=d))
        rows = [[sum((l[i] * right[i][j] for i in range(d)), 0)
                 for j in range(c)] for l in left]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                             min_size=m, max_size=m))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    list(rows[draw(st.integers(0, len(rows) - 1))]))
    if draw(st.booleans()):
        rows.append([0] * c)
    return rows


@settings(max_examples=250, derandomize=True, deadline=None)
@given(rational_matrices())
def test_integer_rank_matches_rational_rref(rows):
    assert rank(rows) == len(rref(rows)[1])


@pytest.mark.parametrize("rows,expected", [
    ([], 0),
    ([()], 0),
    ([(0, 0, 0), (0, 0, 0)], 0),
    ([(2, 4, 6), (1, 2, 3), (2, 4, 6)], 1),
    ([(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 13)], 2),
    ([(0, 0, 1, 2, 3, 4, 5, 6), (0, 0, 2, 4, 6, 8, 10, 13)], 2),
    ([(Fraction(1, 2), Fraction(1, 3)), (3, 2)], 1),
    ([(Fraction(1, 2), Fraction(2, 3)), (Fraction(1, 6), 0)], 2),
])
def test_integer_rank_corner_cases(rows, expected):
    assert rank(rows) == expected == len(rref(rows)[1])
