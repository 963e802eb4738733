"""Reduced row echelon form over Fraction: the slow, independent oracle for
the fraction-free integer elimination in liestrata.linalg.

``rref`` checks ``rank``; ``left_null_basis``, ``primitive_span_basis`` and
``span_equals`` are the Fraction reductions the integer kernels replaced,
kept here so the tests can demand identical outputs.
"""

from fractions import Fraction
from functools import reduce
from math import gcd

from liestrata import DimensionMismatchError


def rref(rows):
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
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


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    denoms = [f.denominator for f in vec]
    scale = reduce(lambda a, b: a * b // gcd(a, b), denoms, 1)
    ints = [int(f * scale) for f in vec]
    g = reduce(gcd, (abs(x) for x in ints), 0)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def left_null_basis(rows):
    """One vector per free column of rref(Y^T): 1 at its own free
    coordinate, 0 at the others, scaled to a primitive integer vector."""
    m = len(rows)
    if m == 0:
        return ()
    yt = tuple(zip(*rows))
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


def primitive_span_basis(vectors):
    """The rref rows of the span, each scaled to a primitive integer vector."""
    if not vectors:
        return ()
    red, _ = rref(vectors)
    return tuple(_primitive(row) for row in red)


def span_equals(basis_a, basis_b):
    """Whether two lists of rational vectors have the same rref."""
    if not basis_a and not basis_b:
        return True
    if bool(basis_a) != bool(basis_b):
        return False
    if len(basis_a[0]) != len(basis_b[0]):
        raise DimensionMismatchError("ambient dimensions differ")
    return rref(basis_a)[0] == rref(basis_b)[0]
