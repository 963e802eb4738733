import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from liestrata import (DimensionMismatchError, Triple, UPSILON,
                       gf2_column_space_contains, gf2_coset_transversal,
                       gf2_rank, gf2_root_matrix, left_null_basis, rank,
                       root_matrix, root_vector, span_equals,
                       validate_index_set)
from liestrata.linalg import (gf2_column_space, primitive,
                              primitive_span_basis, transpose)

import gf2_oracle
import rref_oracle
from conftest import random_index_set
from rref_oracle import rref


def gf2_coset_representative(lam, v):
    """The canonical transversal element in the same Col(Y)-coset as v."""
    basis, pivots = gf2_column_space(lam)
    word = sum((bit & 1) << i for i, bit in enumerate(v))
    for b, p in zip(basis, pivots):
        if (word >> p) & 1:
            word ^= b
    return tuple((word >> i) & 1 for i in range(len(lam)))


def test_root_vector_examples():
    assert root_vector(Triple(1, 2, 3), 4) == (1, 1, -1, 0)
    assert root_vector(Triple(1, 3, 4), 4) == (1, 0, 1, -1)
    assert root_vector(Triple(2, 3, 4), 4) == (0, 1, 1, -1)


def test_root_vector_coinciding_indices_sum():
    # upsilon-style triple with k = i
    assert root_vector(Triple(1, 2, 1), 3) == (0, 1, 0)


def test_root_matrix_filiform4(filiform4):
    assert root_matrix(filiform4) == ((1, 1, -1, 0), (1, 0, 1, -1))
    assert gf2_root_matrix(filiform4) == ((1, 1, 1, 0), (1, 0, 1, 1))


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


def in_column_space(rows, v) -> bool:
    """Whether v (length m, rational) lies in Col(Y): v ⟂ Null(Y^T)."""
    if len(v) != len(rows):
        raise DimensionMismatchError(
            f"vector length {len(v)} != row count {len(rows)}")
    vals = [Fraction(x) for x in v]
    return all(sum(w[i] * vals[i] for i in range(len(w))) == 0
               for w in left_null_basis(rows))


def test_in_column_space(one_quad_mult2):
    y = root_matrix(one_quad_mult2)
    assert in_column_space(y, [0] * 6)
    assert not in_column_space(y, (1, -1, 0, 0, -1, 1))
    first_col = [row[0] for row in y]
    assert in_column_space(y, first_col)
    with pytest.raises(DimensionMismatchError):
        in_column_space(y, [0] * 5)


def test_gf2_ranks(one_quad_mult2, one_quad_mult3):
    assert gf2_rank(one_quad_mult2) == 5
    assert gf2_rank(one_quad_mult3) == 5


def test_gf2_column_space_contains_zero(one_quad_mult2):
    assert gf2_column_space_contains(one_quad_mult2, [0] * 6)
    with pytest.raises(DimensionMismatchError):
        gf2_column_space_contains(one_quad_mult2, [0] * 7)


def test_transversals_match_fixture_cosets(filiform4, one_quad_mult2,
                                           one_quad_mult3):
    assert gf2_coset_transversal(filiform4) == ((0, 0),)
    trans = gf2_coset_transversal(one_quad_mult2)
    assert len(trans) == 2
    expected = [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]
    for want in expected:
        assert any(gf2_column_space_contains(
            one_quad_mult2, tuple(x ^ y for x, y in zip(want, got)))
            for got in trans)
    trans3 = gf2_coset_transversal(one_quad_mult3)
    assert len(trans3) == 4
    span = [(0,) * 7,
            (0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 1, 1)]
    for want in span:
        assert any(gf2_column_space_contains(
            one_quad_mult3, tuple(x ^ y for x, y in zip(want, got)))
            for got in trans3)


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
        m = len(lam)
        if m == 0 or m > 12:
            continue
        checked += 1
        trans = gf2_coset_transversal(lam)
        assert len(trans) == 2 ** (m - gf2_rank(lam))
        for a in range(len(trans)):
            for b in range(a + 1, len(trans)):
                diff = tuple(x ^ y for x, y in zip(trans[a], trans[b]))
                assert not gf2_column_space_contains(lam, diff)
        for word in range(1 << m):
            v = tuple((word >> i) & 1 for i in range(m))
            rep = gf2_coset_representative(lam, v)
            assert rep in trans
            matches = [
                t for t in trans
                if gf2_column_space_contains(
                    lam, tuple(x ^ y for x, y in zip(v, t)))
            ]
            assert matches == [rep]


def random_upsilon_set(rng):
    """An upsilon-mode set; most have a triple with k = i or k = j."""
    n = rng.randint(2, 7)
    pool = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for k in range(1, n + 1)]
    picks = rng.sample(pool, rng.randint(1, min(10, len(pool))))
    if rng.random() < 0.8:
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        picks = list({*picks, (i, j, rng.choice((i, j)))})
    return validate_index_set(picks, n, UPSILON)


def test_gf2_column_reduction_matches_row_oracle():
    rng = random.Random(15)
    coinciding = 0
    for example in range(400):
        if example % 2:
            lam = random_upsilon_set(rng)
        else:
            lam = random_index_set(rng)
        coinciding += any(t.k in (t.i, t.j) for t in lam.triples)
        y, m, n = root_matrix(lam), len(lam), lam.n
        assert gf2_root_matrix(lam) == tuple(tuple(x % 2 for x in row)
                                             for row in y)
        oracle_rank = gf2_oracle.rank(y, n)
        assert gf2_rank(lam) == oracle_rank
        picked = [c for c in range(n) if rng.randrange(2)]
        vectors = [(0,) * m,
                   tuple(sum(row[c] for c in picked) % 2 for row in y)]
        vectors += [tuple(rng.randrange(2) for _ in range(m))
                    for _ in range(3)]
        for v in vectors:
            assert gf2_column_space_contains(lam, v) == \
                gf2_oracle.column_space_contains(y, n, v)
        if m - oracle_rank <= 4:
            trans = gf2_coset_transversal(lam)
            assert trans == gf2_oracle.coset_transversal(y, n)
            assert len(trans) == 2 ** (m - oracle_rank)
            for a in range(len(trans)):
                for b in range(a + 1, len(trans)):
                    diff = tuple(x ^ z for x, z in zip(trans[a], trans[b]))
                    assert not gf2_oracle.column_space_contains(y, n, diff)
    assert coinciding >= 150


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


@settings(max_examples=250, derandomize=True, deadline=None)
@given(rational_matrices())
def test_integer_kernels_match_fraction_rref(rows):
    assert left_null_basis(rows) == rref_oracle.left_null_basis(rows)
    assert primitive_span_basis(rows) == \
        rref_oracle.primitive_span_basis(rows)


@st.composite
def same_width_pairs(draw):
    """Two matrices of one width; the second is often built from the rows
    of the first (same span), otherwise drawn independently."""
    a = draw(rational_matrices())
    width = len(a[0]) if a else draw(st.integers(0, 7))
    if a and draw(st.booleans()):
        b = []
        for _ in range(draw(st.integers(0, len(a) + 2))):
            coeffs = draw(st.lists(ENTRIES, min_size=len(a),
                                   max_size=len(a)))
            b.append([sum((k * row[j] for k, row in zip(coeffs, a)), 0)
                      for j in range(width)])
        b.extend(a[:draw(st.integers(0, len(a)))])
    else:
        b = draw(st.lists(st.lists(ENTRIES, min_size=width, max_size=width),
                          max_size=7))
    return a, b


@settings(max_examples=150, derandomize=True, deadline=None)
@given(same_width_pairs())
def test_integer_span_equals_matches_fraction_rref(pair):
    a, b = pair
    assert span_equals(a, b) == rref_oracle.span_equals(a, b)


@pytest.mark.parametrize("rows", [
    [],
    [()],
    [(), (), ()],
    [(0, 0, 0), (0, 0, 0)],
    [(2, 4, 6), (1, 2, 3), (2, 4, 6)],
    [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 13)],
    [(0, 0, 1, 2, 3, 4, 5, 6), (0, 0, 2, 4, 6, 8, 10, 13)],
    [(Fraction(1, 2), Fraction(1, 3)), (3, 2)],
    [(Fraction(1, 2), Fraction(2, 3)), (Fraction(1, 6), 0)],
    [(3, 0, -6, 9), (0, 5, 10, 0), (-2, 7, 0, 1), (1, 12, 4, 10)],
])
def test_integer_kernel_corner_cases(rows):
    assert left_null_basis(rows) == rref_oracle.left_null_basis(rows)
    assert primitive_span_basis(rows) == \
        rref_oracle.primitive_span_basis(rows)
    assert span_equals(rows, rows[::-1])


@pytest.mark.parametrize("values,expected", [
    ((), ()),
    ((0, 0), (0, 0)),
    ((4, -6, 0), (2, -3, 0)),
    ((-4, 6), (-2, 3)),
    ((Fraction(1, 2), Fraction(-1, 3)), (3, -2)),
    ((Fraction(-2, 3), Fraction(4, 9), 2), (-3, 2, 9)),
    (("1/2", 1), (1, 2)),
])
def test_primitive_scales_and_keeps_orientation(values, expected):
    assert primitive(values) == expected
