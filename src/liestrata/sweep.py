"""Deterministic census sweeps over all index sets inside Theta_n.

Strata are enumerated by size and then lexicographically by triple sequence,
one task per (size, first triple) block.  A block is walked depth first:
adding a triple raises the multiplicity of the quadruple of every aligned
pair it forms with the triples already chosen, and removing it lowers them
again.  Each stratum's obstruction status and the labels it can still get
come from those running counts through quadruples.stratum_status, so a
stratum is dropped before its triples are built, and the rational kernel is
only computed when its multiplicity pattern leaves more than one label open.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import CapExceededError
from .quadruples import (OBSTRUCTION_EMPTY, classify, stratum_status,
                         _pair_info)
from .triples import IndexSet, THETA, Triple, enumerate_theta

WORKERS_ENV = "LIESTRATA_WORKERS"
# No cap lifts n above this.  The pair table grows with the square of
# C(n, 3): building it took 0.41 s and 36 MB peak RSS at n = 16, 1.7 s and
# 90 MB at n = 20, 5.4 s and 258 MB at n = 24 (Python 3.11, 2 vCPUs).
MAX_N = 16


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
    multiplicity and holds no zero entries, so its values are the
    stratum's quadruple multiplicities.  Slots rather than a dataclass,
    whose generated methods would add to the import time of every CLI call.
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


def _summarize(walk: _Walk) -> StratumSummary | None:
    """Summary of the walk's current stratum, or None when it is dropped.

    The filters first see the status and possible labels of the running
    multiplicities; classify runs only when more than one label is open.
    """
    mults = walk.counter.values()
    obstruction, labels = stratum_status(mults)
    if walk.discard and obstruction == OBSTRUCTION_EMPTY:
        return None
    if walk.obstruction is not None and obstruction != walk.obstruction:
        return None
    if walk.classification is not None and walk.classification not in labels:
        return None
    triples = tuple(walk.theta[i] for i in walk.combo)
    classification = None
    if walk.want_cls:
        if len(labels) == 1:
            classification = labels[0]
        else:
            classification = classify(IndexSet(walk.n, triples, THETA))
            if walk.classification is not None and \
                    classification != walk.classification:
                return None
    return StratumSummary(triples, obstruction, classification,
                          tuple(sorted(mults)))


def _check_caps(n: int, max_size, size, cap: int) -> None:
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the cap {cap}")
    if n > MAX_N:
        raise CapExceededError(f"n={n} exceeds the ceiling {MAX_N} on --cap")
    if n >= 7 and max_size is None and size is None:
        raise CapExceededError(f"n={n} needs --size or --max-size")


def _sizes(n: int, max_size, size) -> list[int]:
    total = len(enumerate_theta(n))
    if size is not None:
        return [size] if 0 <= size <= total else []
    top = total if max_size is None else min(max_size, total)
    return list(range(top + 1))


def _block(args) -> list[StratumSummary]:
    """All matching summaries of one (size, first-index) enumeration block."""
    (n, k, first, obstruction, classification, discard, want_cls) = args
    theta, partners = _pair_cache(n)
    walk = _Walk(n, theta, obstruction, classification, discard, want_cls)
    out: list[StratumSummary] = []
    if k == 0:
        if first == -1:
            summary = _summarize(walk)
            if summary is not None:
                out.append(summary)
        return out
    combo, counter = walk.combo, walk.counter
    slack = len(theta) - k

    def descend(depth: int, candidates: Iterable[int]) -> None:
        # combo holds `depth` indices
        leaf = depth + 1 == k
        for c in candidates:
            row = partners[c]
            added = [row[a] for a in combo if a in row]
            for q in added:
                counter[q] = counter.get(q, 0) + 1
            combo.append(c)
            if leaf:
                summary = _summarize(walk)
                if summary is not None:
                    out.append(summary)
            else:
                descend(depth + 1, range(c + 1, slack + depth + 2))
            combo.pop()
            for q in added:
                m = counter[q] - 1
                if m:
                    counter[q] = m
                else:
                    del counter[q]

    if 0 <= first <= slack:
        descend(0, (first,))
    return out


def sweep_strata(n: int, max_size: int | None = None, size: int | None = None,
                 cap: int = 8, obstruction: str | None = None,
                 classification: str | None = None,
                 discard_obstructed: bool = False,
                 workers: int = 1) -> Iterator[StratumSummary]:
    """Yield matching strata in (size, lexicographic) order, classified
    for n <= 6 or under a classification filter.

    The caps are checked and the pair table is built by the call itself, so
    a refused sweep raises before its caller has written anything; the
    returned generator then walks the blocks.
    """
    _check_caps(n, max_size, size, cap)
    theta, _ = _pair_cache(n)
    want_cls = n <= 6 or classification is not None
    tasks = []
    for k in _sizes(n, max_size, size):
        firsts = [-1] if k == 0 else list(range(len(theta) - k + 1))
        for first in firsts:
            tasks.append((n, k, first, obstruction, classification,
                          discard_obstructed, want_cls))
    return _walk_blocks(tasks, pool_size(workers, len(tasks)))


def _walk_blocks(tasks: list, workers: int) -> Iterator[StratumSummary]:
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for block in pool.map(_block, tasks, chunksize=4):
                yield from block
    else:
        for task in tasks:
            yield from _block(task)


def pool_size(workers: int, tasks: int) -> int:
    """The worker processes worth starting: no more than the tasks or CPUs."""
    return min(workers, tasks, os.cpu_count() or 1)


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
