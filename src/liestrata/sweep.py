"""Deterministic census sweeps over all index sets inside Theta_n.

Strata are enumerated by size and then lexicographically by triple sequence,
one task per (size, first triple) block.  A block is walked depth first:
adding a triple raises the multiplicity of the quadruple of every aligned
pair it forms with the triples already chosen, and removing it lowers them
again, so each stratum's obstruction status comes from running counts
rather than a rescan of its pairs.  The rational kernel is only computed
for a stratum that can be kept and whose multiplicity pattern can actually
match one of the classification cases.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import CapExceededError
from .quadruples import (EMPTY, FINITE_1Q2, FINITE_2Q2_DISJOINT, ONEDIM_1Q3,
                         ONEDIM_1Q3_1Q2_SHARED, ONEDIM_2Q2_SHARED,
                         UNCLASSIFIED, UNOBSTRUCTED, classify, _pair_info)
from .jacobi import (OBSTRUCTION_AUTOMATIC, OBSTRUCTION_EMPTY,
                     OBSTRUCTION_NONTRIVIAL)
from .triples import IndexSet, THETA, Triple, enumerate_theta

WORKERS_ENV = "LIESTRATA_WORKERS"

# The labels classify can give a nontrivial stratum, by sorted multiplicity
# pattern; every other pattern is "unclassified" without a classify call.
_PATTERN_LABELS = {
    (2,): (FINITE_1Q2, UNCLASSIFIED),
    (2, 2): (FINITE_2Q2_DISJOINT, ONEDIM_2Q2_SHARED, UNCLASSIFIED),
    (3,): (ONEDIM_1Q3, UNCLASSIFIED),
    (2, 3): (ONEDIM_1Q3_1Q2_SHARED, UNCLASSIFIED),
}
_UNCLASSIFIED = (UNCLASSIFIED,)


@dataclass(frozen=True)
class StratumSummary:
    triples: tuple[Triple, ...]
    obstruction: str
    classification: str | None
    multiplicities: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.triples)


@lru_cache(maxsize=8)
def _pair_cache(n: int):
    """theta, and for each index b its aligned partners a < b -> quadruple."""
    theta = enumerate_theta(n)
    partners = []
    for b in range(len(theta)):
        row = {}
        for a in range(b):
            info = _pair_info(theta[a], theta[b])
            if info is not None:
                row[a] = info[0]
        partners.append(row)
    return theta, partners


class _Walk:
    """One block walk: the filters and the stratum currently visited.

    ``counter`` maps each quadruple of the stratum's aligned pairs to its
    multiplicity and holds no zero entries, so its length is the number of
    nonzero quadruples.  Slots rather than a dataclass, whose generated
    methods would add to the import time of every CLI call.
    """

    __slots__ = ("n", "theta", "obstruction", "classification", "discard",
                 "want_cls", "combo", "counter")

    def __init__(self, n: int, theta: list[Triple], obstruction: str | None,
                 classification: str | None, discard: bool, want_cls: bool):
        self.n, self.theta = n, theta
        self.obstruction, self.classification = obstruction, classification
        self.discard, self.want_cls = discard, want_cls
        self.combo: list[int] = []
        self.counter: dict = {}


def _summarize(walk: _Walk, ones: int) -> StratumSummary | None:
    """Summary of the walk's current stratum, or None when it is dropped.

    ``ones`` counts the quadruples of multiplicity 1.  Every early return is
    a case ``_keep`` drops, decided from the running counts before any
    triples, sorted multiplicities or classify call are paid for.
    """
    counter = walk.counter
    if not counter:
        obstruction = OBSTRUCTION_AUTOMATIC
    elif ones:
        obstruction = OBSTRUCTION_EMPTY
    else:
        obstruction = OBSTRUCTION_NONTRIVIAL
    if walk.discard and obstruction == OBSTRUCTION_EMPTY:
        return None
    if walk.obstruction is not None and obstruction != walk.obstruction:
        return None
    classification = None
    if walk.want_cls:
        if obstruction == OBSTRUCTION_AUTOMATIC:
            labels = (UNOBSTRUCTED,)
        elif obstruction == OBSTRUCTION_EMPTY:
            labels = (EMPTY,)
        elif len(counter) > 2:
            labels = _UNCLASSIFIED
        else:
            labels = _PATTERN_LABELS.get(tuple(sorted(counter.values())),
                                         _UNCLASSIFIED)
        if walk.classification is not None and \
                walk.classification not in labels:
            return None
        if len(labels) == 1:
            classification = labels[0]
    triples = tuple(walk.theta[i] for i in walk.combo)
    if walk.want_cls and classification is None:
        classification = classify(IndexSet(walk.n, triples, THETA))
    summary = StratumSummary(triples, obstruction, classification,
                             tuple(sorted(counter.values())))
    if _keep(summary, walk.obstruction, walk.classification, walk.discard):
        return summary
    return None


def _check_caps(n: int, max_size, size, cap: int) -> None:
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the cap {cap}")
    if n >= 7 and max_size is None and size is None:
        raise CapExceededError(f"n={n} needs --size or --max-size")


def _sizes(n: int, max_size, size) -> list[int]:
    total = len(enumerate_theta(n))
    if size is not None:
        return [size] if 0 <= size <= total else []
    top = total if max_size is None else min(max_size, total)
    return list(range(top + 1))


def _keep(summary: StratumSummary, obstruction, classification,
          discard_obstructed: bool) -> bool:
    if discard_obstructed and summary.obstruction == OBSTRUCTION_EMPTY:
        return False
    if obstruction is not None and summary.obstruction != obstruction:
        return False
    if classification is not None and \
            summary.classification != classification:
        return False
    return True


def _block(args) -> list[StratumSummary]:
    """All matching summaries of one (size, first-index) enumeration block."""
    (n, k, first, obstruction, classification, discard, want_cls) = args
    theta, partners = _pair_cache(n)
    walk = _Walk(n, theta, obstruction, classification, discard, want_cls)
    out: list[StratumSummary] = []
    if k == 0:
        if first == -1:
            summary = _summarize(walk, 0)
            if summary is not None:
                out.append(summary)
        return out
    combo, counter = walk.combo, walk.counter
    slack = len(theta) - k

    def descend(depth: int, candidates: Iterable[int], ones: int) -> None:
        # combo holds `depth` indices and `ones` quadruples of multiplicity 1
        leaf = depth + 1 == k
        for c in candidates:
            row = partners[c]
            added = [row[a] for a in combo if a in row]
            grown = ones
            for q in added:
                m = counter.get(q, 0) + 1
                counter[q] = m
                if m == 1:
                    grown += 1
                elif m == 2:
                    grown -= 1
            combo.append(c)
            if leaf:
                summary = _summarize(walk, grown)
                if summary is not None:
                    out.append(summary)
            else:
                descend(depth + 1, range(c + 1, slack + depth + 2), grown)
            combo.pop()
            for q in added:
                m = counter[q] - 1
                if m:
                    counter[q] = m
                else:
                    del counter[q]

    if 0 <= first <= slack:
        descend(0, (first,), 0)
    return out


def sweep_strata(n: int, max_size: int | None = None, size: int | None = None,
                 cap: int = 8, obstruction: str | None = None,
                 classification: str | None = None,
                 discard_obstructed: bool = False,
                 with_classification: bool | None = None,
                 workers: int = 1) -> Iterator[StratumSummary]:
    """Yield matching strata in (size, lexicographic) order."""
    _check_caps(n, max_size, size, cap)
    theta, _ = _pair_cache(n)
    want_cls = with_classification if with_classification is not None \
        else (n <= 6 or classification is not None)
    if classification is not None:
        want_cls = True
    tasks = []
    for k in _sizes(n, max_size, size):
        firsts = [-1] if k == 0 else list(range(len(theta) - k + 1))
        for first in firsts:
            tasks.append((n, k, first, obstruction, classification,
                          discard_obstructed, want_cls))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for block in pool.map(_block, tasks, chunksize=4):
                yield from block
    else:
        for task in tasks:
            yield from _block(task)


def workers_from_env(default: int = 1) -> int:
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw)) if raw else default
    except ValueError:
        return default


def sweep_counts(summaries: Iterable[StratumSummary]) -> dict:
    """Totals by obstruction status and by classification label.

    The CLI feeds its sweep through this for the trailing summary.
    """
    counts: dict = {"total": 0, "obstruction": Counter(),
                    "classification": Counter()}
    for s in summaries:
        counts["total"] += 1
        counts["obstruction"][s.obstruction] += 1
        if s.classification is not None:
            counts["classification"][s.classification] += 1
    return counts
