"""The Fraction cross-section arithmetic: the independent oracle for the
slice points and Jacobian that cross_sections computes over integers with
one common denominator.

Every magnitude and every Jacobian entry is built term by term as a
Fraction, so nothing here shares a denominator or a triangle with the
fast path.
"""

from fractions import Fraction
from math import log

from liestrata import point_at


def slice_values(spec, params):
    """a0 + sum t_i W_i, one Fraction product at a time."""
    ts = [Fraction(t) for t in params]
    return tuple(a + sum(t * w[k] for t, w in zip(ts, spec.W))
                 for k, a in enumerate(spec.a0))


def jacobian(spec, params, c=Fraction(1)):
    """Entry (i, j) is c * sum_k W_i[k] W_j[k] / a_k, every entry summed."""
    mags = slice_values(spec, params)
    cf = Fraction(c)
    d = spec.dim
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            total = Fraction(0)
            for k in range(len(mags)):
                prod = spec.W[i][k] * spec.W[j][k]
                if prod:
                    total += Fraction(prod) / mags[k]
            row.append(cf * total)
        out.append(tuple(row))
    return tuple(out)


def ldl_pivots(matrix) -> list:
    """The pivots D of the LDL^T factorization of a symmetric matrix, by
    Fraction elimination without row exchanges; a zero pivot ends it.  All
    are > 0 exactly when the matrix is positive definite."""
    a = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for k, row in enumerate(a):
        pivots.append(row[k])
        if not row[k]:
            break
        for below in a[k + 1:]:
            f = below[k] / row[k]
            for j in range(k, len(row)):
                below[j] -= f * row[j]
    return pivots


def dominant(jac) -> bool:
    """Strict diagonal dominance of a Fraction matrix."""
    for i, row in enumerate(jac):
        off = sum(abs(x) for j, x in enumerate(row) if j != i)
        if not row[i] > off:
            return False
    return True


def f_value(spec, c, params):
    """c * (pi_Y . Ln . a)(params), in floating point: the projection map
    for finite-difference checks of the exact Jacobian."""
    mags = point_at(spec, params)
    cf = float(Fraction(c))
    logs = [log(v) for v in mags]
    return tuple(cf * sum(w[k] * logs[k] for k in range(len(mags)))
                 for w in spec.W)
