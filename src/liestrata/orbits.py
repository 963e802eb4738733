"""Exact isomorphism testing for products over a common index set.

Two products are in the same diagonal-subgroup orbit exactly when their
squared magnitudes agree against every left kernel vector of the root matrix
(a rational power-product identity, no logarithms) and their sign vectors
differ by a GF(2) column-space member.  The tool does not verify that
isomorphism classes coincide with these orbits; every verdict carries the
``assumes-D-orbit-classes`` caveat.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError
from .linalg import gf2_column_space_contains, kernel_basis
from .triples import StructureVector, sign_vector

ISOMORPHISM_CAVEAT = "assumes-D-orbit-classes"


def apply_diagonal(g: Sequence, a: StructureVector) -> StructureVector:
    """Transform a by the diagonal basis change diag(c_1, ..., c_n).

    For a triple (i,j,k) the entry picks up the factor c_k / (c_i * c_j).
    """
    c = [Fraction(x) for x in g]
    if len(c) != a.lam.n:
        raise DimensionMismatchError(
            f"need {a.lam.n} diagonal entries, got {len(c)}")
    if any(x == 0 for x in c):
        raise DimensionMismatchError("diagonal entries must be nonzero")
    values = tuple(v * c[t.k - 1] / (c[t.i - 1] * c[t.j - 1])
                   for t, v in zip(a.lam.triples, a.values))
    return StructureVector(a.lam, values)


def _check_same_set(a: StructureVector, b: StructureVector) -> None:
    if a.lam != b.lam:
        raise DimensionMismatchError("vectors live over different index sets")


def magnitude_orbit_equivalent(a: StructureVector, b: StructureVector) -> bool:
    """Squared-magnitude test: prod_t (a_t^2/b_t^2)^{w_t} = 1 per kernel w."""
    _check_same_set(a, b)
    for w in kernel_basis(a.lam):
        prod = Fraction(1)
        for t, e in enumerate(w):
            if e:
                prod *= (a[t] / b[t]) ** (2 * e)
        if prod != 1:
            return False
    return True


def sign_orbit_equivalent(a: StructureVector, b: StructureVector) -> bool:
    """Whether sgn(a) xor sgn(b) lies in the GF(2) column space of the root matrix."""
    _check_same_set(a, b)
    diff = tuple(x ^ y for x, y in zip(sign_vector(a), sign_vector(b)))
    return gf2_column_space_contains(a.lam, diff)


def d_orbit_equivalent(a: StructureVector, b: StructureVector) -> bool:
    return magnitude_orbit_equivalent(a, b) and sign_orbit_equivalent(a, b)


# CLI verdict string by (magnitude test, sign test)
VERDICTS = {(True, True): "equivalent",
            (False, True): "distinct (magnitude)",
            (True, False): "distinct (sign)",
            (False, False): "distinct (both)"}


def orbit_verdict(a: StructureVector, b: StructureVector) -> str:
    """CLI verdict string with the failing component spelled out."""
    return VERDICTS[magnitude_orbit_equivalent(a, b),
                    sign_orbit_equivalent(a, b)]
