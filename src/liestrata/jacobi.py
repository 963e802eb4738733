"""The quadratic Jacobi system of a stratum and its brute-force oracle.

The system has one equation per quadruple, each term a signed product of the
two structure constants of an aligned pair producing that quadruple.  The
oracle expands the full skew-symmetric bracket instead and checks that every
Jacobiator [[x,y],z] + [[y,z],x] + [[z,x],y] vanishes; it never looks at
quadruples or signs, so the two routes stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DimensionMismatchError
# the obstruction statuses are re-exported from here
from .quadruples import (OBSTRUCTION_AUTOMATIC, OBSTRUCTION_EMPTY,
                         OBSTRUCTION_NONTRIVIAL, Quadruple, quadruple_table,
                         stratum_status)
from .triples import IndexSet, StructureVector


@dataclass(frozen=True)
class JacobiEquation:
    """Sum over terms (sign, p, r) of sign * a[p] * a[r], equated to zero."""

    quadruple: Quadruple
    terms: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class JacobiSystem:
    lam: IndexSet
    equations: tuple[JacobiEquation, ...]

    def __len__(self) -> int:
        return len(self.equations)


def jacobi_system(lam: IndexSet) -> JacobiSystem:
    """One signed bilinear equation per quadruple, terms ordered by (p, r)."""
    table = quadruple_table(lam)
    equations = []
    for q in table.quadruples:
        terms = tuple((ap.sign, ap.p, ap.r)
                      for ap in sorted(table.pairs[q], key=lambda a: (a.p, a.r)))
        equations.append(JacobiEquation(q, terms))
    return JacobiSystem(lam, tuple(equations))


def evaluate_jacobi(sys: JacobiSystem, a: StructureVector) -> tuple[Fraction, ...]:
    """Exact residual of each equation at the structure vector a."""
    if a.lam != sys.lam:
        raise DimensionMismatchError("structure vector indexed by another set")
    return tuple(sum((sign * a[p] * a[r] for sign, p, r in eq.terms),
                     Fraction(0))
                 for eq in sys.equations)


def is_lie(sys: JacobiSystem, a: StructureVector) -> bool:
    return all(res == 0 for res in evaluate_jacobi(sys, a))


def obstruction_status(lam: IndexSet) -> str:
    """empty if some quadruple has multiplicity 1, automatic if none exist."""
    mults = quadruple_table(lam).multiplicities().values()
    return stratum_status(mults)[0]


def format_equation(eq: JacobiEquation, lam: IndexSet) -> str:
    """Render like ``(1,2,3,7): -a[1,2,4]*a[3,4,7] + a[1,3,5]*a[2,5,7] = 0``."""
    parts = []
    for idx, (sign, p, r) in enumerate(eq.terms):
        tp, tr = lam.triples[p], lam.triples[r]
        body = f"a[{tp.i},{tp.j},{tp.k}]*a[{tr.i},{tr.j},{tr.k}]"
        if idx == 0:
            parts.append(("-" if sign < 0 else "") + body)
        else:
            parts.append(("- " if sign < 0 else "+ ") + body)
    q = eq.quadruple
    return f"({q[0]},{q[1]},{q[2]},{q[3]}): " + " ".join(parts) + " = 0"


def format_system(sys: JacobiSystem) -> list[str]:
    return [format_equation(eq, sys.lam) for eq in sys.equations]


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
