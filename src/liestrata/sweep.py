"""Deterministic census sweeps over all index sets inside Theta_n.

Strata are enumerated by size and then lexicographically by triple sequence,
one task per (size, first triple) block.  A block is walked depth first:
adding a triple raises the multiplicity of the quadruple of every aligned
pair it forms with the triples already chosen, and removing it lowers them
again.  Each stratum's obstruction status and the labels it can still get
come from those running counts through quadruples.stratum_status, so a
stratum is dropped before its triples are built, and the rational kernel is
only computed when its multiplicity pattern leaves more than one label open.

A block returns plain records, not summaries: (theta indices, obstruction,
classification, multiplicities).  Without a renderer the calling process
turns each record into a StratumSummary.  With one, the process that walks
a block also renders it: a pool worker sends back each stratum's text in
place of its indices, and the serial path renders each record as it is
yielded.  The process pool is imported only when a sweep starts one; it is
given tasks at most workers + 1 ahead of the one being consumed, and a
block with more than LEAF_BOUND leaves is split into runs of its second
index, so neither the parent nor a worker holds more than a few tasks'
results.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from functools import lru_cache, partial
from itertools import starmap
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import CapExceededError
from .quadruples import (OBSTRUCTION_EMPTY, classify, stratum_status,
                         _pair_info)
from .triples import IndexSet, THETA, Triple, enumerate_theta

WORKERS_ENV = "LIESTRATA_WORKERS"
# No cap lifts n above this.  The pair table grows with the square of
# C(n, 3): building it took 0.41 s and 36 MB peak RSS at n = 16, 1.7 s and
# 90 MB at n = 20, 5.4 s and 258 MB at n = 24 (Python 3.11, 2 vCPUs).
MAX_N = 16
# A (size, first) block with more leaves than this is walked as several
# tasks, each a run of consecutive second indices.  census sweeps at n = 7,
# size 4 have blocks of up to 5 984 leaves, which stay whole; at n = 6 a
# block has up to 92 378.
LEAF_BOUND = 8192


class StratumSummary(NamedTuple):
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


def _summarize(walk: _Walk) -> tuple | None:
    """Record of the walk's current stratum, or None when it is dropped.

    A record is (theta indices, obstruction, classification, sorted
    multiplicities): the fields of a StratumSummary with the triples given
    by their indices into theta.

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
    classification = None
    if walk.want_cls:
        if len(labels) == 1:
            classification = labels[0]
        else:
            triples = tuple(walk.theta[i] for i in walk.combo)
            classification = classify(IndexSet(walk.n, triples, THETA))
            if walk.classification is not None and \
                    classification != walk.classification:
                return None
    return (tuple(walk.combo), obstruction, classification,
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


def _block(args, seconds: range | None = None) -> list[tuple]:
    """All matching records of one (size, first-index) enumeration block,
    or of the part of it whose second index lies in ``seconds``."""
    (n, k, first, obstruction, classification, discard, want_cls) = args
    theta, partners = _pair_cache(n)
    walk = _Walk(n, theta, obstruction, classification, discard, want_cls)
    out: list[tuple] = []
    if k == 0:
        if first == -1:
            record = _summarize(walk)
            if record is not None:
                out.append(record)
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
                record = _summarize(walk)
                if record is not None:
                    out.append(record)
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
        if seconds is None:
            descend(0, (first,))
        else:
            # a single triple forms no pair: the counter stays empty
            combo.append(first)
            descend(1, seconds)
    return out


def _split(m: int, k: int, first: int) -> list[range | None]:
    """The second-index runs that cut block (k, first) of a theta of m
    triples into tasks of at most LEAF_BOUND leaves, in order; [None]
    keeps the block whole.  Second index s heads C(m-1-s, k-2) leaves."""
    if k < 2 or comb(m - 1 - first, k - 1) <= LEAF_BOUND:
        return [None]
    runs, lo, leaves = [], first + 1, 0
    for s in range(first + 1, m - k + 2):
        count = comb(m - 1 - s, k - 2)
        if leaves and leaves + count > LEAF_BOUND:
            runs.append(range(lo, s))
            lo, leaves = s, 0
        leaves += count
    runs.append(range(lo, m - k + 2))
    return runs


def sweep_strata(n: int, max_size: int | None = None, size: int | None = None,
                 cap: int = 8, obstruction: str | None = None,
                 classification: str | None = None,
                 discard_obstructed: bool = False, workers: int = 1,
                 render: Callable[[tuple, int], str] | None = None
                 ) -> Iterator[StratumSummary] | Iterator[tuple]:
    """Yield matching strata in (size, lexicographic) order, classified
    for n <= 6 or under a classification filter.

    Without ``render`` each stratum is a StratumSummary.  With it, each is
    a plain tuple (text, obstruction, classification, multiplicities), the
    summary's fields with ``render(record, n)`` in place of the triples;
    ``record`` is (theta indices, obstruction, classification,
    multiplicities), indices into ``enumerate_theta(n)``.  ``render`` must
    be a module-level function, since a pool worker receives it pickled by
    name and renders its own tasks; serially each record is rendered as it
    is yielded.

    The caps are checked and the pair table is built by the call itself, so
    a refused sweep raises before its caller has written anything; the
    returned generator then walks the blocks.
    """
    _check_caps(n, max_size, size, cap)
    theta, _ = _pair_cache(n)
    want_cls = n <= 6 or classification is not None
    tasks = []
    for k in _sizes(n, max_size, size):
        firsts = [-1] if k == 0 else range(len(theta) - k + 1)
        for first in firsts:
            args = (n, k, first, obstruction, classification,
                    discard_obstructed, want_cls)
            tasks += [(args, seconds)
                      for seconds in _split(len(theta), k, first)]
    return _walk_blocks(tasks, pool_size(workers, len(tasks)), n, render)


def _walk_blocks(tasks: list, workers: int, n: int,
                 render) -> Iterator[StratumSummary] | Iterator[tuple]:
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        work = _block if render is None else partial(_rendered_block, render)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = _windowed(pool, work, tasks, workers + 1)
            if render is None:
                yield from _summaries(blocks, _pair_cache(n)[0])
            else:
                for block in blocks:
                    yield from block
    elif render is None:
        yield from _summaries(starmap(_block, tasks), _pair_cache(n)[0])
    else:
        yield from _rendered(starmap(_block, tasks), render, n)


def _windowed(pool, work, tasks: list, window: int) -> Iterator[list]:
    """``work(*task)`` for each task, in order, with ``window`` tasks
    submitted ahead of the one whose result the caller is taking."""
    pending: deque = deque()
    for task in tasks:
        pending.append(pool.submit(work, *task))
        if len(pending) > window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _rendered(blocks: Iterable[list[tuple]], render,
              n: int) -> Iterator[tuple]:
    for block in blocks:
        for record in block:
            _, obstruction, classification, mults = record
            yield render(record, n), obstruction, classification, mults


def _rendered_block(render, args, seconds=None) -> list[tuple]:
    """A pool task with its records rendered in the worker."""
    return list(_rendered((_block(args, seconds),), render, args[0]))


def _summaries(blocks: Iterable[list[tuple]],
               theta: list[Triple]) -> Iterator[StratumSummary]:
    triple = theta.__getitem__
    for block in blocks:
        for indices, obstruction, classification, mults in block:
            yield StratumSummary(tuple(map(triple, indices)), obstruction,
                                 classification, mults)


def pool_size(workers: int, tasks: int) -> int:
    """The worker processes worth starting: no more than the tasks or CPUs."""
    return min(workers, tasks, os.cpu_count() or 1)


def workers_from_env(default: int = 1) -> int:
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw)) if raw else default
    except ValueError:
        return default


def sweep_counts(summaries: Iterable[tuple]) -> dict:
    """Totals by obstruction status and by classification label.

    Reads fields 1 and 2 of each item, so it counts a stream of summaries
    or of rendered tuples alike.  The CLI feeds its sweep through this for
    the trailing summary.
    """
    total = 0
    obstruction, classification = Counter(), Counter()
    for s in summaries:
        total += 1
        obstruction[s[1]] += 1
        if s[2] is not None:
            classification[s[2]] += 1
    return {"total": total, "obstruction": obstruction,
            "classification": classification}
