"""Aligned pairs, quadruples, w-vectors and the stratum classification.

Two distinct strictly increasing triples are aligned exactly when their root
vectors have inner product -1, which forces them to share exactly one index
r sitting in the last slot of one triple and a first/middle slot of the
other.  The relative position of r decides the sign of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Collection

from .errors import ModeError, NotAlignedError
from .linalg import (IntVector, gf2_rank, gf2_reduce, primitive_span_basis,
                     rank, root_matrix)
from .triples import IndexSet, Triple, memo

Quadruple = tuple[int, int, int, int]

# classification labels
EMPTY = "empty"
UNOBSTRUCTED = "unobstructed"
FINITE_1Q2 = "finite-1q2"
FINITE_2Q2_DISJOINT = "finite-2q2-disjoint"
ONEDIM_2Q2_SHARED = "onedim-2q2-shared"
ONEDIM_1Q3 = "onedim-1q3"
ONEDIM_1Q3_1Q2_SHARED = "onedim-1q3+1q2-shared"
UNCLASSIFIED = "unclassified"

CLASSIFICATIONS = (EMPTY, UNOBSTRUCTED, FINITE_1Q2, FINITE_2Q2_DISJOINT,
                   ONEDIM_2Q2_SHARED, ONEDIM_1Q3, ONEDIM_1Q3_1Q2_SHARED,
                   UNCLASSIFIED)

# obstruction statuses
OBSTRUCTION_EMPTY = "empty"
OBSTRUCTION_AUTOMATIC = "automatic"
OBSTRUCTION_NONTRIVIAL = "nontrivial"

OBSTRUCTIONS = (OBSTRUCTION_EMPTY, OBSTRUCTION_AUTOMATIC,
                OBSTRUCTION_NONTRIVIAL)

# The labels a stratum of each obstruction status can get (stratum_status)
STATUS_LABELS = {
    OBSTRUCTION_EMPTY: (EMPTY,),
    OBSTRUCTION_AUTOMATIC: (UNOBSTRUCTED,),
    OBSTRUCTION_NONTRIVIAL: tuple(c for c in CLASSIFICATIONS
                                  if c not in (EMPTY, UNOBSTRUCTED)),
}

# The labels classify can give a nontrivial stratum, by sorted multiplicity
# pattern; every other pattern is unclassified, and so is a stratum whose
# w-vectors do not span the null space.  Otherwise a one-quadruple pattern
# takes its first label, and a two-quadruple pattern the label at the number
# of triples common to both quadruples: 0, 1, or 2 and more.
_PATTERN_LABELS = {
    (2,): (FINITE_1Q2, UNCLASSIFIED),
    (3,): (ONEDIM_1Q3, UNCLASSIFIED),
    (2, 2): (FINITE_2Q2_DISJOINT, ONEDIM_2Q2_SHARED, UNCLASSIFIED),
    (2, 3): (UNCLASSIFIED, ONEDIM_1Q3_1Q2_SHARED, UNCLASSIFIED),
}
_UNCLASSIFIED = (UNCLASSIFIED,)


def stratum_status(mults: Collection[int]) -> tuple[str, tuple[str, ...]]:
    """Obstruction status and the labels classify can give a stratum.

    ``mults`` are the multiplicities of its nonzero quadruples, in any
    order.  No quadruple at all makes the Jacobi system automatic, and one
    of multiplicity 1 makes the stratum empty; either fixes the label.
    """
    if not mults:
        return OBSTRUCTION_AUTOMATIC, (UNOBSTRUCTED,)
    if 1 in mults:
        return OBSTRUCTION_EMPTY, (EMPTY,)
    if len(mults) > 2:
        return OBSTRUCTION_NONTRIVIAL, _UNCLASSIFIED
    return OBSTRUCTION_NONTRIVIAL, _PATTERN_LABELS.get(tuple(sorted(mults)),
                                                       _UNCLASSIFIED)


def _require_theta_triples(*ts: Triple) -> None:
    for t in ts:
        if not (t.i < t.j < t.k):
            raise ModeError(f"{t} is not strictly increasing")


def root_dot(t1: Triple, t2: Triple) -> int:
    """Inner product of the two root vectors, computed combinatorially."""
    pos1, pos2 = {t1.i, t1.j}, {t2.i, t2.j}
    d = len(pos1 & pos2)
    d -= 1 if t1.k in pos2 else 0
    d -= 1 if t2.k in pos1 else 0
    d += 1 if t1.k == t2.k else 0
    return d


def aligned(t1: Triple, t2: Triple) -> bool:
    """Whether the pair is aligned (root-vector inner product -1)."""
    _require_theta_triples(t1, t2)
    if t1 == t2:
        raise NotAlignedError("a triple is not aligned with itself")
    return root_dot(t1, t2) == -1


# Unbounded, but kept: classify builds a fresh quadruple table per stratum,
# and those tables re-pair the same triples, so a classifying sweep gains.
@lru_cache(maxsize=None)
def _pair_info(t1: Triple, t2: Triple) -> tuple[Quadruple, int] | None:
    """(quadruple, sign) of an aligned pair, None when not aligned.

    The shared index r is the last entry of one triple (a1, a2, r) and the
    first or middle entry of the other.  r first means the pair is the
    disjoint-above pattern with sign +1; r in the middle splits on where the
    partner's first entry falls relative to (a1, a2).  The two remaining
    patterns of the six conceivable ones contradict i < j < k and are
    unreachable.
    """
    if root_dot(t1, t2) != -1:
        return None
    shared = set(t1) & set(t2)
    assert len(shared) == 1
    r = shared.pop()
    if t1.k == r:
        low, high = t1, t2
    else:
        low, high = t2, t1
    assert low.k == r and r in (high.i, high.j)
    quad_set = set(low) ^ set(high)
    quad: Quadruple = tuple(sorted(quad_set))  # type: ignore[assignment]
    a1, a2 = low.i, low.j
    if high.i == r:
        sign = 1                      # {(q1,q2,r), (r,q3,q4)}
    else:
        b1 = high.i
        if b1 > a2:
            sign = -1                 # {(q1,q2,r), (q3,r,q4)}
        elif b1 > a1:
            sign = 1                  # {(q1,q3,r), (q2,r,q4)}
        else:
            sign = -1                 # {(q2,q3,r), (q1,r,q4)}
    return quad, sign


def quadruple_of(t1: Triple, t2: Triple) -> Quadruple:
    """Sorted symmetric difference of the index sets of an aligned pair."""
    _require_theta_triples(t1, t2)
    info = _pair_info(t1, t2)
    if info is None:
        raise NotAlignedError(f"{t1} and {t2} are not aligned")
    return info[0]


def pair_sign(t1: Triple, t2: Triple) -> int:
    """The +-1 sign attached to an aligned pair; symmetric in arguments."""
    _require_theta_triples(t1, t2)
    info = _pair_info(t1, t2)
    if info is None:
        raise NotAlignedError(f"{t1} and {t2} are not aligned")
    return info[1]


@dataclass(frozen=True)
class AlignedPair:
    """Positions p < r of two aligned triples in an index set, with sign."""

    p: int
    r: int
    sign: int


@memo
def quadruple_table(lam: IndexSet) -> dict[Quadruple, tuple[AlignedPair, ...]]:
    """Aligned pairs of lam by quadruple, in sorted order; shared, read-only.

    This map is the Jacobi system: one equation per quadruple, whose terms
    are its pairs in (p, r) order, each the pair's sign times the product
    of the two structure constants.  A quadruple's multiplicity is its
    number of pairs.
    """
    lam.require_theta("quadruple table")
    grouped: dict[Quadruple, list[AlignedPair]] = {}
    ts = lam.triples
    for p in range(len(ts)):
        for r in range(p + 1, len(ts)):
            info = _pair_info(ts[p], ts[r])
            if info is None:
                continue
            quad, sign = info
            grouped.setdefault(quad, []).append(AlignedPair(p, r, sign))
    return {q: tuple(grouped[q]) for q in sorted(grouped)}


def common_triples(lam: IndexSet, q1: Quadruple,
                   q2: Quadruple) -> list[Triple]:
    """Triples of lam in an aligned pair of both quadruples.

    A quadruple absent from the table has no pairs, so it shares no triple.
    """
    table = quadruple_table(lam)
    s1, s2 = ({pos for ap in table.get(q, ()) for pos in (ap.p, ap.r)}
              for q in (q1, q2))
    return [lam.triples[pos] for pos in sorted(s1 & s2)]


def w_vector(m1: int, m2: int, m3: int, m4: int, length: int) -> IntVector:
    """e_m1 + e_m2 - e_m3 - e_m4 over 0-based positions in an index set."""
    v = [0] * length
    v[m1] += 1
    v[m2] += 1
    v[m3] -= 1
    v[m4] -= 1
    return tuple(v)


def lambda_subspace_vectors(lam: IndexSet) -> list[IntVector]:
    """All w-vectors from pairs of aligned pairs sharing a quadruple.

    Every unordered combination of two distinct pairs with the same
    quadruple contributes one vector, oriented with the earlier pair
    positive.
    """
    return [w_vector(x.p, x.r, y.p, y.r, len(lam))
            for pairs in quadruple_table(lam).values()
            for x, y in combinations(pairs, 2)]


def lambda_subspace(lam: IndexSet) -> tuple[IntVector, ...]:
    """Primitive echelon basis of the span of all w-vectors of lam."""
    return primitive_span_basis(lambda_subspace_vectors(lam))


@memo
def null_space_spanning(lam: IndexSet) -> bool:
    """Whether the w-vectors span the whole left null space of Y.

    Decided mod 2 first.  With m = |lam| and r2, rQ the ranks over GF(2)
    and Q: a rank mod 2 never exceeds the rank over Q (an odd minor is
    nonzero), and every w-vector w has Y^T w = 0, so for the matrix W of
    w-vectors
        r2(W) <= rQ(W) <= m - rQ(Y) <= m - r2(Y).
    When r2(W) == m - r2(Y) every inequality is an equality and the
    w-vectors span.  Two pairs of one quadruple share no triple, so a
    w-vector's four positions are distinct and its word mod 2 has those
    four bits.  Only when this certificate falls short are the ranks over
    Q compared.
    """
    lam.require_theta("null-space-spanning test")
    words = ((1 << x.p) ^ (1 << x.r) ^ (1 << y.p) ^ (1 << y.r)
             for pairs in quadruple_table(lam).values()
             for x, y in combinations(pairs, 2))
    if len(gf2_reduce(words)[1]) == len(lam) - gf2_rank(lam):
        return True
    dim_null = len(lam) - rank(root_matrix(lam))
    return rank(lambda_subspace_vectors(lam)) == dim_null


def classify(lam: IndexSet) -> str:
    """Place lam into one of the classification labels.

    The multiplicity pattern decides the label unless it leaves more than
    one open (see _PATTERN_LABELS); then a non-spanning subspace gives
    "unclassified", and the number of common triples picks among the
    labels of a two-quadruple pattern.
    """
    lam.require_theta("classification")
    table = quadruple_table(lam)
    _, labels = stratum_status([len(pairs) for pairs in table.values()])
    if len(labels) == 1:
        return labels[0]
    if not null_space_spanning(lam):
        return UNCLASSIFIED
    if len(table) == 1:
        return labels[0]
    q1, q2 = table
    return labels[min(len(common_triples(lam, q1, q2)), 2)]
