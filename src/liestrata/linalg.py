"""Exact linear algebra for root matrices.

Rank, kernels and spans are computed by fraction-free (Bareiss) elimination
over the integers; rational input rows are first scaled to integer rows.
One exact-division step, ``_pivot``, serves them all and the redundancy LP
of ``cross_sections``.
Kernels and spans come out as primitive integer vectors in a canonical
echelon-derived form.  Over GF(2) the root matrix is stored by columns,
each packed into an integer word whose bit ``r`` holds row ``r``, and
reduced once per index set by ``gf2_reduce``, the one GF(2) reduction.
No floating point anywhere.
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
    """Rank over Q, by Bareiss elimination on integer-scaled rows."""
    return len(_eliminate(_integer_rows(rows), reduced=False)[1])


def _pivot(m: list[list[int]], r: int, c: int, det: int,
           rows: Iterable[int]) -> int:
    """Pivot the integer rows m on entry (r, c) in place; return p = m[r][c].

    Each row i in rows other than r becomes
    (p * m[i] - m[i][c] * m[r]) // det, det being the previous pivot (1 at
    first) and p the next.  The division is exact: the result is an integer
    minor of the starting rows, by Sylvester's identity for a row not yet
    pivoted and by Cramer's rule for one that was.  A row that was det
    times its Fraction-tableau counterpart (pivot rows divided by their
    pivot) is p times it after, so while every pivot is positive each row
    is a positive multiple of its counterpart, with the same signs and
    ratios.
    """
    top = m[r]
    p = top[c]
    for i in rows:
        if i != r:
            f = m[i][c]
            m[i] = [(p * x - f * y) // det for x, y in zip(m[i], top)]
    return p


def _eliminate(m: list[list[int]], reduced: bool
               ) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free elimination of integer rows, in place.

    Each column's pivot is the first nonzero entry at or below the current
    row.  A reduced elimination (Gauss-Jordan) clears the pivot column from
    every other row, so each nonzero row left is det times the matching row
    of the reduced echelon form over Q, with det > 0; otherwise only the
    rows below are cleared (Bareiss), which is all a rank needs.  Returns
    (nonzero rows, pivot columns, det).
    """
    pivots: list[int] = []
    det = 1
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        for pivot in range(r, len(m)):
            if m[pivot][c]:
                break
        else:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        det = _pivot(m, r, c, det,
                     range(len(m)) if reduced else range(r + 1, len(m)))
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    if det < 0:
        return [[-x for x in row] for row in m[:r]], pivots, -det
    return m[:r], pivots, det


def left_null_basis(rows: IntMatrix) -> tuple[IntVector, ...]:
    """Primitive integer basis of {w : Y^T w = 0} for Y given by rows.

    The basis comes from the reduced echelon form of Y^T: one vector per
    free column, positive at its own free coordinate and 0 at the others.
    After fraction-free Gauss-Jordan each pivot row i is det > 0 times the
    reduced row, so det * e_f - sum_i red[i][f] * e_{pivot_i}, divided by
    its gcd, is the primitive form of that vector.  Empty when the kernel
    is trivial.
    """
    m = len(rows)
    if m == 0:
        return ()
    red, pivots, det = _eliminate(_integer_rows(transpose(rows)),
                                  reduced=True)
    is_pivot = set(pivots)
    basis = []
    for f in range(m):
        if f in is_pivot:
            continue
        v = [0] * m
        v[f] = det
        for row, p in zip(red, pivots):
            v[p] = -row[f]
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
    return tuple(map(primitive, _eliminate(_integer_rows(vectors),
                                           reduced=True)[0]))


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


def gf2_reduce(words: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Echelon basis of the span of GF(2) vectors packed as integer words,
    and the pivot bit of each basis word.

    Each word is reduced against the basis so far and kept, pivoted at its
    lowest bit, if anything is left; a kept word is 0 at every earlier
    pivot, so the pivots are exactly the lowest bits of the span's nonzero
    members and their number is the rank.
    """
    basis: list[int] = []
    pivots: list[int] = []
    for word in words:
        for b, p in zip(basis, pivots):
            if (word >> p) & 1:
                word ^= b
        if word:
            basis.append(word)
            pivots.append((word & -word).bit_length() - 1)
    return tuple(basis), tuple(pivots)


@memo
def gf2_column_space(lam: IndexSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """gf2_reduce of the columns of lam's root matrix mod 2, as m-bit words
    (bit r is row r).

    The n column words come straight from the triples; a coinciding index
    cancels as it does mod 2.
    """
    cols = [0] * lam.n
    for r, t in enumerate(lam.triples):
        for c in t:
            cols[c - 1] ^= 1 << r
    return gf2_reduce(cols)


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
    basis, pivots = gf2_column_space(lam)
    word = sum((int(b) & 1) << i for i, b in enumerate(v))
    return len(gf2_reduce((*basis, word))[1]) == len(pivots)


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
