"""Exact linear algebra for root matrices.

Rank, kernels and spans are computed by fraction-free (Bareiss) elimination
over the integers; rational input rows are first scaled to integer rows.
Kernels and spans come out as primitive integer vectors in a canonical
echelon-derived form.  Over GF(2) the root matrix is stored by columns,
each packed into an integer word whose bit ``r`` holds row ``r``, and
reduced once per index set.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import CapExceededError, DimensionMismatchError
from .triples import IndexSet, Triple, memo

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


def root_vector(t: Triple, n: int) -> IntVector:
    """e_i + e_j - e_k as a length-n integer vector (coinciding indices sum)."""
    v = [0] * n
    v[t.i - 1] += 1
    v[t.j - 1] += 1
    v[t.k - 1] -= 1
    return tuple(v)


def root_matrix(lam: IndexSet) -> IntMatrix:
    """Rows are the root vectors of lam in dictionary order."""
    return tuple(root_vector(t, lam.n) for t in lam.triples)


def transpose(rows: Sequence[Sequence]) -> tuple[tuple, ...]:
    if not rows:
        return ()
    return tuple(zip(*rows))


def primitive(values: Iterable) -> IntVector:
    """The primitive integer vector along a rational vector.

    Scales by the lcm of the denominators, then divides by the gcd of the
    result, so the orientation is kept and the entries have gcd 1; the zero
    vector stays zero.
    """
    vals = [x if isinstance(x, (int, Fraction)) else Fraction(x)
            for x in values]
    scale = lcm(*[x.denominator for x in vals])
    ints = [x.numerator * (scale // x.denominator) for x in vals]
    g = gcd(*ints)
    return tuple([x // g for x in ints] if g > 1 else ints)


def _integer_rows(rows: Iterable[Sequence]) -> list[list[int]]:
    """Rows scaled to integers by a positive factor each; integral rows as is."""
    return [list(row) if all(type(x) is int for x in row)
            else list(primitive(row)) for row in rows]


def rank(rows: Iterable[Sequence]) -> int:
    """Rank over Q, by Bareiss elimination on integer-scaled rows.

    Each step replaces a row below the pivot by (p * row - f * pivot_row)
    divided by the previous pivot; by Sylvester's identity that division is
    exact, so every entry stays an integer minor of the input.
    """
    m = _integer_rows(rows)
    ncols = len(m[0]) if m else 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        r += 1
        if r == len(m):
            break
    return r


def _gauss_jordan(m: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    A pivot p at (r, c) replaces every other row by
    (p * row - row[c] * pivot_row) // det and then sets det = p: Bareiss's
    exact division carried through to the rows above the pivot.  Each
    nonzero row left is det times the matching row of the reduced echelon
    form over Q.  Returns (nonzero rows, pivot columns, det).
    """
    pivots: list[int] = []
    det = 1
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // det for x, y in zip(m[i], top)]
        det = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots, det


def left_null_basis(rows: IntMatrix) -> tuple[IntVector, ...]:
    """Primitive integer basis of {w : Y^T w = 0} for Y given by rows.

    The basis comes from the reduced echelon form of Y^T: one vector per
    free column, positive at its own free coordinate and 0 at the others.
    After fraction-free Gauss-Jordan each pivot row i is det times the
    reduced row, so det * e_f - sum_i red[i][f] * e_{pivot_i}, oriented and
    divided by its gcd, is the primitive form of that vector.  Empty when
    the kernel is trivial.
    """
    m = len(rows)
    if m == 0:
        return ()
    red, pivots, det = _gauss_jordan(_integer_rows(transpose(rows)))
    sign = 1 if det > 0 else -1
    is_pivot = set(pivots)
    basis = []
    for f in range(m):
        if f in is_pivot:
            continue
        v = [0] * m
        v[f] = sign * det
        for row, p in zip(red, pivots):
            v[p] = -sign * row[f]
        basis.append(primitive(v))
    return tuple(basis)


@memo
def kernel_basis(lam: IndexSet) -> tuple[IntVector, ...]:
    """left_null_basis of lam's root matrix, computed once per index set."""
    return left_null_basis(root_matrix(lam))


def primitive_span_basis(vectors: Sequence[Sequence]) -> tuple[IntVector, ...]:
    """Canonical primitive integer basis for the span of rational vectors:
    the rows of its reduced echelon form, each scaled to a primitive integer
    vector with a positive leading entry."""
    red, _, det = _gauss_jordan(_integer_rows(vectors))
    sign = 1 if det > 0 else -1
    return tuple(tuple([sign * x for x in primitive(row)]) for row in red)


def span_equals(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> bool:
    """Whether two lists of rational vectors span the same subspace."""
    if not basis_a and not basis_b:
        return True
    if bool(basis_a) != bool(basis_b):
        return False
    if len(basis_a[0]) != len(basis_b[0]):
        raise DimensionMismatchError("ambient dimensions differ")
    return primitive_span_basis(basis_a) == primitive_span_basis(basis_b)


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------


@memo
def gf2_column_space(lam: IndexSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Echelon basis of the column space of lam's root matrix mod 2, as
    m-bit words (bit r is row r), and the pivot row of each basis word.

    The n column words come straight from the triples; a coinciding index
    cancels as it does mod 2.  Each word is reduced against the basis so
    far and kept, pivoted at its lowest bit, if anything is left; the
    pivots are then exactly the lowest bits of the column space's nonzero
    members.
    """
    cols = [0] * lam.n
    for r, t in enumerate(lam.triples):
        for c in t:
            cols[c - 1] ^= 1 << r
    basis: list[int] = []
    pivots: list[int] = []
    for word in cols:
        for b, p in zip(basis, pivots):
            if (word >> p) & 1:
                word ^= b
        if word:
            basis.append(word)
            pivots.append((word & -word).bit_length() - 1)
    return tuple(basis), tuple(pivots)


def gf2_root_matrix(lam: IndexSet) -> IntMatrix:
    """Root matrix reduced entrywise mod 2."""
    return tuple(tuple(x & 1 for x in row) for row in root_matrix(lam))


def gf2_rank(lam: IndexSet) -> int:
    return len(gf2_column_space(lam)[1])


def gf2_column_space_contains(lam: IndexSet, v: Sequence[int]) -> bool:
    """Whether the Z2 vector v lies in the span of lam's GF(2) root columns."""
    if len(v) != len(lam):
        raise DimensionMismatchError(
            f"vector length {len(v)} != row count {len(lam)}")
    word = sum((int(b) & 1) << i for i, b in enumerate(v))
    for b, p in zip(*gf2_column_space(lam)):
        if (word >> p) & 1:
            word ^= b
    return word == 0


# The most free coordinates gf2_coset_transversal enumerates, i.e. at most
# 2^18 = 262 144 representatives.  No stratum of the tests or of the
# benchmark corpus has more than 14.
GF2_TRANSVERSAL_CAP = 18


@memo
def gf2_coset_transversal(lam: IndexSet) -> tuple[tuple[int, ...], ...]:
    """One representative per coset of lam's GF(2) column space in Z2^m.

    Representatives are exactly the vectors supported on the non-pivot
    coordinates of the reduced column space, i.e. the lexicographically
    least member of each coset with that support; there are 2^(m - rank).
    Raises CapExceededError when m - rank exceeds GF2_TRANSVERSAL_CAP.
    """
    m = len(lam)
    pivots = set(gf2_column_space(lam)[1])
    free = [c for c in range(m) if c not in pivots]
    if len(free) > GF2_TRANSVERSAL_CAP:
        raise CapExceededError(
            f"the GF(2) coset transversal has 2^{len(free)} representatives "
            f"(more than 2^{GF2_TRANSVERSAL_CAP})")
    reps = []
    for mask in range(1 << len(free)):
        bits = [0] * m
        for b, coord in enumerate(free):
            bits[coord] = (mask >> b) & 1
        reps.append(tuple(bits))
    return tuple(reps)
