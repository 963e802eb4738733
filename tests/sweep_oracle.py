"""Plain-enumeration census: every stratum from ``combinations``, every pair
of its triples rescanned.

This is the sweep engine as it was before the depth-first walk, kept as the
slow oracle the walk is compared with.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from liestrata.quadruples import (EMPTY, OBSTRUCTION_AUTOMATIC,
                                  OBSTRUCTION_EMPTY, OBSTRUCTION_NONTRIVIAL,
                                  UNCLASSIFIED, UNOBSTRUCTED, _pair_info,
                                  classify)
from liestrata.sweep import StratumSummary
from liestrata.triples import IndexSet, THETA, enumerate_theta

_CLASSIFIABLE_PATTERNS = ((2,), (2, 2), (3,), (2, 3))


def _summarize(n, combo, theta, pairs, want_classification):
    counter: Counter = Counter()
    for x in range(len(combo)):
        for y in range(x + 1, len(combo)):
            quad = pairs.get((combo[x], combo[y]))
            if quad is not None:
                counter[quad] += 1
    triples = tuple(theta[i] for i in combo)
    mults = tuple(sorted(counter.values()))
    if not counter:
        obstruction = OBSTRUCTION_AUTOMATIC
    elif 1 in counter.values():
        obstruction = OBSTRUCTION_EMPTY
    else:
        obstruction = OBSTRUCTION_NONTRIVIAL
    classification = None
    if want_classification:
        if obstruction == OBSTRUCTION_AUTOMATIC:
            classification = UNOBSTRUCTED
        elif obstruction == OBSTRUCTION_EMPTY:
            classification = EMPTY
        elif mults not in _CLASSIFIABLE_PATTERNS:
            classification = UNCLASSIFIED
        else:
            classification = classify(IndexSet(n, triples, THETA))
    return StratumSummary(triples, obstruction, classification, mults)


def census(n: int, sizes, want_classification: bool) -> list[StratumSummary]:
    """Unfiltered summaries of every stratum of the given sizes, in order."""
    theta = enumerate_theta(n)
    pairs = {}
    for a in range(len(theta)):
        for b in range(a + 1, len(theta)):
            info = _pair_info(theta[a], theta[b])
            if info is not None:
                pairs[(a, b)] = info[0]
    return [_summarize(n, combo, theta, pairs, want_classification)
            for k in sizes
            for combo in combinations(range(len(theta)), k)]


STATUSES = (OBSTRUCTION_EMPTY, OBSTRUCTION_AUTOMATIC, OBSTRUCTION_NONTRIVIAL)


def keep(summary: StratumSummary, name=None,
         discard_obstructed: bool = False) -> bool:
    """The sweep's filter, restated as the CLI once dispatched it: a
    status name matches the obstruction, any other name the label."""
    if discard_obstructed and summary.obstruction == OBSTRUCTION_EMPTY:
        return False
    if name in STATUSES:
        return summary.obstruction == name
    return name is None or summary.classification == name


def classifying(n: int, name=None) -> bool:
    """Whether a sweep labels its strata: at n <= 6, or when the filter
    names a label that is not a status."""
    return n <= 6 or name not in (None, *STATUSES)
