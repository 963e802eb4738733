"""The stratum label from root vectors alone: the slow, independent oracle
for ``quadruples.classify``.

Two triples are aligned when their root vectors have inner product -1, and
their quadruple is the sorted symmetric difference of the two triples.
Whether the w-vectors span the left null space of the root matrix is decided
by ``rref_oracle`` ranks over Q, and the triples common to two quadruples are
the intersection of their participant sets.  Nothing here reads the pair
signs, the quadruple table, the pattern table or GF(2).
"""

from __future__ import annotations

from itertools import combinations

from liestrata.linalg import root_vector
from liestrata.quadruples import (EMPTY, FINITE_1Q2, FINITE_2Q2_DISJOINT,
                                  ONEDIM_1Q3, ONEDIM_1Q3_1Q2_SHARED,
                                  ONEDIM_2Q2_SHARED, UNCLASSIFIED,
                                  UNOBSTRUCTED)
from liestrata.triples import IndexSet, THETA, enumerate_theta

from rref_oracle import rref


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def aligned_pairs(triples, n: int) -> dict[tuple, list[tuple[int, int]]]:
    """Positions (p, r) of the aligned pairs, grouped by their quadruple."""
    ys = [root_vector(t, n) for t in triples]
    grouped: dict[tuple, list[tuple[int, int]]] = {}
    for p, r in combinations(range(len(triples)), 2):
        if _dot(ys[p], ys[r]) == -1:
            quad = tuple(sorted(set(triples[p]) ^ set(triples[r])))
            assert len(quad) == 4, (triples[p], triples[r])
            grouped.setdefault(quad, []).append((p, r))
    return grouped


def _rank(rows) -> int:
    return len(rref(rows)[0])


def _spanning(triples, n: int, grouped) -> bool:
    """Whether the w-vectors span the left null space of the root matrix."""
    m = len(triples)
    ws = []
    for pairs in grouped.values():
        for (p, r), (p2, r2) in combinations(pairs, 2):
            w = [0] * m
            w[p] += 1
            w[r] += 1
            w[p2] -= 1
            w[r2] -= 1
            ws.append(w)
    rows = [root_vector(t, n) for t in triples]
    return _rank(ws) == m - _rank(rows)


def oracle_label(lam: IndexSet) -> str:
    """The label classify must give lam, restated from the definitions."""
    triples, n = lam.triples, lam.n
    grouped = aligned_pairs(triples, n)
    mults = sorted(len(pairs) for pairs in grouped.values())
    if not mults:
        return UNOBSTRUCTED
    if 1 in mults:
        return EMPTY
    if mults not in ([2], [3], [2, 2], [2, 3]):
        return UNCLASSIFIED
    if not _spanning(triples, n, grouped):
        return UNCLASSIFIED
    if mults == [2]:
        return FINITE_1Q2
    if mults == [3]:
        return ONEDIM_1Q3
    q1, q2 = grouped
    common = ({triples[pos] for pair in grouped[q1] for pos in pair}
              & {triples[pos] for pair in grouped[q2] for pos in pair})
    if mults == [2, 2]:
        return {0: FINITE_2Q2_DISJOINT, 1: ONEDIM_2Q2_SHARED}.get(
            len(common), UNCLASSIFIED)
    return ONEDIM_1Q3_1Q2_SHARED if len(common) == 1 else UNCLASSIFIED


def strata_with_two_quadruples(n: int, max_size: int):
    """Every stratum of at most max_size triples whose aligned pairs give
    exactly two quadruples, both of multiplicity at least two.

    Adding a triple never removes an aligned pair, so a prefix with three
    or more quadruples is not extended.
    """
    theta = enumerate_theta(n)
    ys = [root_vector(t, n) for t in theta]
    quad_of = {}
    for a, b in combinations(range(len(theta)), 2):
        if _dot(ys[a], ys[b]) == -1:
            quad_of[a, b] = tuple(sorted(set(theta[a]) ^ set(theta[b])))

    def walk(chosen, counts):
        if len(counts) == 2 and min(counts.values()) >= 2:
            yield IndexSet(n, tuple(theta[i] for i in chosen), THETA)
        if len(chosen) == max_size:
            return
        for c in range(chosen[-1] + 1 if chosen else 0, len(theta)):
            grown = dict(counts)
            for a in chosen:
                quad = quad_of.get((a, c))
                if quad is not None:
                    grown[quad] = grown.get(quad, 0) + 1
            if len(grown) <= 2:
                yield from walk(chosen + [c], grown)

    yield from walk([], {})
