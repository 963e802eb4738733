"""The quadratic Jacobi system of a stratum and its brute-force oracle.

The system is the quadruple table: ``jacobi_system(lam)`` returns
``quadruple_table(lam)``, the shared, read-only dict from each quadruple, in
sorted order, to the aligned pairs producing it, and each pair (p, r, sign)
is the term sign * a[p] * a[r] of that quadruple's equation.  The functions
below read it from Λ.  The oracle expands the full skew-symmetric bracket
instead and checks that every Jacobiator [[x,y],z] + [[y,z],x] + [[z,x],y]
vanishes; it never looks at quadruples or signs, so the two routes stay
independent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import DimensionMismatchError
from .poly import format_sum
from .quadruples import (AlignedPair, Quadruple, quadruple_table,
                         stratum_status)
from .triples import IndexSet, StructureVector


def jacobi_system(lam: IndexSet) -> dict[Quadruple, tuple[AlignedPair, ...]]:
    """One signed bilinear equation per quadruple, terms ordered by (p, r)."""
    return quadruple_table(lam)


def evaluate_jacobi(a: StructureVector) -> tuple[Fraction, ...]:
    """Exact residual of each equation at the structure vector a."""
    return tuple(sum((ap.sign * a[ap.p] * a[ap.r] for ap in pairs),
                     Fraction(0))
                 for pairs in jacobi_system(a.lam).values())


def is_lie(a: StructureVector) -> bool:
    return all(res == 0 for res in evaluate_jacobi(a))


def obstruction_status(lam: IndexSet) -> str:
    """empty if some quadruple has multiplicity 1, automatic if none exist."""
    return stratum_status([len(pairs)
                           for pairs in quadruple_table(lam).values()])[0]


def format_system(lam: IndexSet) -> list[str]:
    """Render like ``(1,2,3,7): -a[1,2,4]*a[3,4,7] + a[1,3,5]*a[2,5,7] = 0``."""
    def product(ap: AlignedPair) -> str:
        tp, tr = lam.triples[ap.p], lam.triples[ap.r]
        return f"a[{tp.i},{tp.j},{tp.k}]*a[{tr.i},{tr.j},{tr.k}]"

    return [f"({q[0]},{q[1]},{q[2]},{q[3]}): "
            f"{format_sum((ap.sign, product(ap)) for ap in pairs)} = 0"
            for q, pairs in jacobi_system(lam).items()]


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


class _Bracket:
    """Sparse bracket table [x_i, x_j] = sum_k alpha_ij^k x_k with skew-symmetry."""

    def __init__(self, a: StructureVector):
        self.n = a.lam.n
        self.table: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for t, val in zip(a.lam.triples, a.values):
            self.table.setdefault((t.i, t.j), []).append((t.k, val))

    def of(self, i: int, j: int) -> list[tuple[int, Fraction]]:
        if i == j:
            return []
        if i < j:
            return self.table.get((i, j), [])
        return [(k, -v) for k, v in self.table.get((j, i), [])]

    def jacobiator(self, i: int, j: int, k: int) -> dict[int, Fraction]:
        """Nonzero coordinates of [[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j]."""
        out: dict[int, Fraction] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for s, v in self.of(a, b):
                for m, w in self.of(s, c):
                    out[m] = out.get(m, Fraction(0)) + v * w
        return {m: v for m, v in out.items() if v != 0}


def brute_force_jacobiator(lam: IndexSet, a: StructureVector) -> bool:
    """Whether a defines a Lie algebra, by full Jacobiator expansion."""
    lam.require_theta("jacobiator oracle")
    if a.lam != lam:
        raise DimensionMismatchError("structure vector indexed by another set")
    bracket = _Bracket(a)
    for i, j, k in combinations(range(1, lam.n + 1), 3):
        if bracket.jacobiator(i, j, k):
            return False
    return True
