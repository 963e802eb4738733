"""Exact linear algebra for root matrices.

Rank is fraction-free (Bareiss) elimination over the integers.  Kernels and
spans are reduced over Fractions and scaled back to primitive integer
vectors in a canonical echelon-derived form.  GF(2) rows
are packed into machine-word integers, bit ``c`` of a row holding column
``c``.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .triples import IndexSet, Triple

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


def rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _integer_row(row: Sequence) -> list[int]:
    """The row itself if it is integral, else scaled by its denominators' lcm."""
    if all(type(x) is int for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs]


def rank(rows: Iterable[Sequence]) -> int:
    """Rank over Q, by Bareiss elimination on integer-scaled rows.

    Each step replaces a row below the pivot by (p * row - f * pivot_row)
    divided by the previous pivot; by Sylvester's identity that division is
    exact, so every entry stays an integer minor of the input.
    """
    m = [_integer_row(row) for row in rows]
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


def _primitive(vec: Sequence[Fraction]) -> IntVector:
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    denoms = [f.denominator for f in vec]
    scale = reduce(lambda a, b: a * b // gcd(a, b), denoms, 1)
    ints = [int(f * scale) for f in vec]
    g = reduce(gcd, (abs(x) for x in ints), 0)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def left_null_basis(rows: IntMatrix) -> tuple[IntVector, ...]:
    """Primitive integer basis of {w : Y^T w = 0} for Y given by rows.

    The basis comes from the reduced echelon form of Y^T: one vector per
    free column, carrying 1 at its own free coordinate and 0 at the others,
    scaled to integers.  Empty when the kernel is trivial.
    """
    m = len(rows)
    if m == 0:
        return ()
    yt = transpose(rows)
    red, pivots = rref(yt)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -red[row_idx][f]
        basis.append(_primitive(v))
    return tuple(basis)


def primitive_span_basis(vectors: Sequence[Sequence]) -> tuple[IntVector, ...]:
    """Canonical primitive integer basis for the span of rational vectors."""
    if not vectors:
        return ()
    red, _ = rref(vectors)
    return tuple(_primitive(row) for row in red)


def in_column_space(rows: IntMatrix, v: Sequence) -> bool:
    """Whether v (length m, rational) lies in Col(Y): v ⟂ Null(Y^T)."""
    if len(v) != len(rows):
        raise DimensionMismatchError(
            f"vector length {len(v)} != row count {len(rows)}")
    vals = [Fraction(x) for x in v]
    return all(sum(w[i] * vals[i] for i in range(len(w))) == 0
               for w in left_null_basis(rows))


def span_equals(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> bool:
    """Whether two lists of rational vectors span the same subspace."""
    if not basis_a and not basis_b:
        return True
    if bool(basis_a) != bool(basis_b):
        return False
    if len(basis_a[0]) != len(basis_b[0]):
        raise DimensionMismatchError("ambient dimensions differ")
    ra, _ = rref(basis_a)
    rb, _ = rref(basis_b)
    return ra == rb


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GF2Matrix:
    """Rows over Z2 packed as integers; bit c of a row is column c."""

    rows: tuple[int, ...]
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_bits(self, r: int) -> tuple[int, ...]:
        return tuple((self.rows[r] >> c) & 1 for c in range(self.ncols))

    def dense(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.row_bits(r) for r in range(self.nrows))

    def column(self, c: int) -> int:
        """Column c packed as an nrows-bit integer."""
        word = 0
        for r, row in enumerate(self.rows):
            word |= ((row >> c) & 1) << r
        return word


def gf2_from_dense(rows: Sequence[Sequence[int]], ncols: int | None = None) -> GF2Matrix:
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    packed = []
    for row in rows:
        word = 0
        for c, x in enumerate(row):
            word |= (int(x) & 1) << c
        packed.append(word)
    return GF2Matrix(tuple(packed), ncols)


def gf2_root_matrix(lam: IndexSet) -> GF2Matrix:
    """Root matrix reduced entrywise mod 2."""
    return gf2_from_dense([[x & 1 for x in row] for row in root_matrix(lam)],
                          lam.n)


def _gf2_eliminate(words: list[int], width: int) -> tuple[list[int], list[int]]:
    """In-place RREF of bitset rows; returns (nonzero rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(words)) if (words[i] >> c) & 1),
                     None)
        if pivot is None:
            continue
        words[r], words[pivot] = words[pivot], words[r]
        for i in range(len(words)):
            if i != r and (words[i] >> c) & 1:
                words[i] ^= words[r]
        pivots.append(c)
        r += 1
        if r == len(words):
            break
    return words[:r], pivots


def gf2_rank(mat: GF2Matrix) -> int:
    return len(_gf2_eliminate(list(mat.rows), mat.ncols)[1])


def gf2_column_space(mat: GF2Matrix) -> tuple[list[int], list[int]]:
    """RREF basis of Col(mat) in Z2^m, as m-bit words, plus pivot coords."""
    cols = [mat.column(c) for c in range(mat.ncols)]
    return _gf2_eliminate(cols, mat.nrows)


def _pack_bits(bits: Sequence[int]) -> int:
    word = 0
    for i, b in enumerate(bits):
        word |= (int(b) & 1) << i
    return word


def _unpack_bits(word: int, width: int) -> tuple[int, ...]:
    return tuple((word >> i) & 1 for i in range(width))


def gf2_column_space_contains(mat: GF2Matrix, v: Sequence[int]) -> bool:
    """Whether the Z2 vector v lies in the span of mat's columns."""
    if len(v) != mat.nrows:
        raise DimensionMismatchError(
            f"vector length {len(v)} != row count {mat.nrows}")
    basis, pivots = gf2_column_space(mat)
    word = _pack_bits(v)
    for b, p in zip(basis, pivots):
        if (word >> p) & 1:
            word ^= b
    return word == 0


def gf2_coset_transversal(mat: GF2Matrix) -> tuple[tuple[int, ...], ...]:
    """One representative per coset of Col(mat) in Z2^m.

    Representatives are exactly the vectors supported on the non-pivot
    coordinates of the reduced column space, i.e. the lexicographically
    least member of each coset with that support; there are 2^(m - rank).
    """
    m = mat.nrows
    _, pivots = gf2_column_space(mat)
    free = [c for c in range(m) if c not in pivots]
    reps = []
    for mask in range(1 << len(free)):
        word = 0
        for b, coord in enumerate(free):
            if (mask >> b) & 1:
                word |= 1 << coord
        reps.append(_unpack_bits(word, m))
    return tuple(reps)
