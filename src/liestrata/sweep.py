"""Deterministic census sweeps over all index sets inside Theta_n.

Strata are enumerated by size and then lexicographically by triple sequence,
in tasks (prefix, run): the strata that start with the theta indices prefix
and continue with an index in run.  A task is walked depth first: adding a
triple raises the multiplicity of the quadruple of every aligned pair it
forms with the triples already chosen, and removing it lowers them again.
Each stratum's obstruction status and the labels it can still get come from
those running counts through quadruples.stratum_status, so a stratum is
dropped before its triples are built, and the rational kernel is only
computed when its multiplicity pattern leaves more than one label open.

A task returns plain records, not summaries: (theta indices, obstruction,
classification, multiplicities).  Without a renderer the calling process
turns each record into a StratumSummary.  With one, the process that walks
a task also renders it: a pool worker sends back each stratum's text in
place of its indices, and the serial path renders each record as it is
yielded.  The process pool is imported only when a sweep starts one; it is
given tasks at most workers + 1 ahead of the one being consumed, and no
task holds more than LEAF_BOUND strata (see _split), so neither the parent
nor a worker holds more than a few tasks' results.
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

# No cap lifts n above this.  The pair table grows with the square of
# C(n, 3): building it took 0.41 s and 36 MB peak RSS at n = 16, 1.7 s and
# 90 MB at n = 20, 5.4 s and 258 MB at n = 24 (Python 3.11, 2 vCPUs).
MAX_N = 16
# No task holds more strata than this.  census sweeps at n = 7, size 4
# have (size, first) blocks of up to 5 984 leaves, which stay whole; at
# n = 6 a block has up to 92 378.
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
    """One task's walk: the filters and the stratum currently visited.

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


def _block(args, prefix: tuple[int, ...], run: range | None) -> list[tuple]:
    """All matching records of the strata of size k that start with the
    theta indices ``prefix`` and continue with an index in ``run``, or
    with any index when ``run`` is None."""
    (n, k, obstruction, classification, discard, want_cls) = args
    theta, partners = _pair_cache(n)
    walk = _Walk(n, theta, obstruction, classification, discard, want_cls)
    out: list[tuple] = []
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

    for c in prefix:  # pushed as descend pushes a candidate
        row = partners[c]
        for q in [row[a] for a in combo if a in row]:
            counter[q] = counter.get(q, 0) + 1
        combo.append(c)
    depth = len(prefix)
    if depth < k:
        if run is None:
            run = range(prefix[-1] + 1 if prefix else 0, slack + depth + 1)
        descend(depth, run)
    else:
        record = _summarize(walk)
        if record is not None:
            out.append(record)
    return out


def _split(m: int, k: int, prefix: tuple[int, ...]) -> list[tuple]:
    """Tasks (prefix, run) of at most LEAF_BOUND leaves each that cover,
    in order, the strata of size k of a theta of m triples that start with
    ``prefix``.  Consecutive next indices are packed into runs; one that
    heads more than LEAF_BOUND leaves is split one level down.  Next index
    s heads C(m-1-s, k-d-1) leaves, d = len(prefix)."""
    d = len(prefix)
    start = prefix[-1] + 1 if prefix else 0
    if comb(m - start, k - d) <= LEAF_BOUND:
        return [(prefix, None)]
    tasks, lo, leaves = [], start, 0
    for s in range(start, m - k + d + 1):
        count = comb(m - 1 - s, k - d - 1)
        if lo < s and leaves + count > LEAF_BOUND:
            tasks.append((prefix, range(lo, s)))
            lo, leaves = s, 0
        if count > LEAF_BOUND:
            tasks += _split(m, k, prefix + (s,))
            lo = s + 1
        else:
            leaves += count
    if leaves:
        tasks.append((prefix, range(lo, m - k + d + 1)))
    return tasks


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

    The caps are checked, the pair table is built and the tasks are listed
    by the call itself, so a refused sweep raises before its caller has
    written anything; the returned generator then walks the tasks, each of
    at most LEAF_BOUND strata, serially or in a pool of at most
    ``workers`` processes.
    """
    _check_caps(n, max_size, size, cap)
    theta, _ = _pair_cache(n)
    want_cls = n <= 6 or classification is not None
    m, tasks = len(theta), []
    for k in _sizes(n, max_size, size):
        args = (n, k, obstruction, classification, discard_obstructed,
                want_cls)
        heads = [()] if k == 0 else [(first,) for first in range(m - k + 1)]
        for head in heads:
            tasks += [(args, *task) for task in _split(m, k, head)]
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


def _rendered_block(render, args, prefix, run) -> list[tuple]:
    """A pool task with its records rendered in the worker."""
    return list(_rendered((_block(args, prefix, run),), render, args[0]))


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
