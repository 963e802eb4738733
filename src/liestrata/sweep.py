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
a task, a pool worker or the caller, also renders it: render(records, n)
turns the task's records into the items the sweep yields.  The process pool
is imported only when a sweep starts one; it is given tasks at most
workers + 1 ahead of the one being consumed, and no task holds more than
LEAF_BOUND strata (see _split), so neither the parent nor a worker holds
more than a few tasks' results.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from functools import lru_cache, partial
from itertools import chain, starmap
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import CapExceededError, MalformedInputError
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


def _summarize(args, theta: list[Triple], combo: list[int],
               counter: dict) -> tuple | None:
    """Record of the stratum of theta indices ``combo`` under the filters
    in the task's ``args``, or None when it is dropped.

    ``counter`` maps each quadruple of the stratum's aligned pairs to its
    multiplicity and holds no zero entries.  The filters first see the
    status and possible labels of those multiplicities; classify runs only
    when more than one label is open.
    """
    n, _, want_obstruction, want_label, discard, want_cls = args
    mults = counter.values()
    obstruction, labels = stratum_status(mults)
    if discard and obstruction == OBSTRUCTION_EMPTY:
        return None
    if want_obstruction is not None and obstruction != want_obstruction:
        return None
    if want_label is not None and want_label not in labels:
        return None
    classification = None
    if want_cls:
        if len(labels) == 1:
            classification = labels[0]
        else:
            triples = tuple(theta[i] for i in combo)
            classification = classify(IndexSet(n, triples, THETA))
            if want_label is not None and classification != want_label:
                return None
    return (tuple(combo), obstruction, classification, tuple(sorted(mults)))


def _check_caps(n: int, max_size, size, cap: int) -> None:
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the cap {cap}")
    if n > MAX_N:
        raise CapExceededError(f"n={n} exceeds the ceiling {MAX_N} on --cap")
    if n >= 7 and max_size is None and size is None:
        raise CapExceededError(f"n={n} needs --size or --max-size")


def _block(args, prefix: tuple[int, ...], run: range | None,
           render: Callable[[list, int], list] | None = None) -> list:
    """The matching records of the strata of size k that start with the
    theta indices ``prefix`` and continue with an index in ``run``, or
    with any index when ``run`` is None; ``render(records, n)`` of them
    when a renderer is given."""
    n, k = args[0], args[1]
    theta, partners = _pair_cache(n)
    combo: list[int] = []
    counter: dict = {}
    out: list[tuple] = []
    slack, fixed = len(theta) - k, len(prefix)

    def descend(depth: int) -> None:
        # combo holds `depth` < k indices; the first len(prefix) are prefix
        if depth < fixed:
            candidates = range(prefix[depth], prefix[depth] + 1)
        elif depth == fixed and run is not None:
            candidates = run
        else:
            candidates = range(combo[-1] + 1 if combo else 0,
                               slack + depth + 1)
        leaf = depth + 1 == k
        for c in candidates:
            row = partners[c]
            added = [row[a] for a in combo if a in row]
            for q in added:
                counter[q] = counter.get(q, 0) + 1
            combo.append(c)
            if leaf:
                record = _summarize(args, theta, combo, counter)
                if record is not None:
                    out.append(record)
            else:
                descend(depth + 1)
            combo.pop()
            for q in added:
                m = counter[q] - 1
                if m:
                    counter[q] = m
                else:
                    del counter[q]

    if k:
        descend(0)
    else:  # size 0: the empty stratum, with no index to pick
        record = _summarize(args, theta, combo, counter)
        if record is not None:
            out.append(record)
    return out if render is None else render(out, n)


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
                 render: Callable[[list, int], list] | None = None
                 ) -> Iterator[StratumSummary] | Iterator[tuple]:
    """Yield matching strata in (size, lexicographic) order, classified
    for n <= 6 or under a classification filter.

    Without ``render`` each stratum is a StratumSummary.  With it, the
    sweep yields the items ``render(records, n)`` returns for each task's
    records (theta indices into ``enumerate_theta(n)``, obstruction,
    classification, multiplicities).  ``render`` must be a module-level
    function: a pool worker receives it pickled by name.

    The call itself checks its arguments, builds the pair table and lists
    the tasks, so a refused sweep (MalformedInputError for workers < 1 or
    a negative size, CapExceededError for a cap) raises before its caller
    has written anything.  The returned generator then walks the tasks,
    each of at most LEAF_BOUND strata, serially or in a pool of at most
    ``workers`` processes.
    """
    for name, value, least in (("workers", workers, 1), ("size", size, 0),
                               ("max_size", max_size, 0)):
        if value is not None and value < least:
            raise MalformedInputError(f"{name}={value} is below {least}")
    _check_caps(n, max_size, size, cap)
    theta, _ = _pair_cache(n)
    want_cls = n <= 6 or classification is not None
    m, tasks = len(theta), []
    if size is None:
        sizes = range((m if max_size is None else min(max_size, m)) + 1)
    else:
        sizes = [size] if size <= m else []
    for k in sizes:
        args = (n, k, obstruction, classification, discard_obstructed,
                want_cls)
        heads = [()] if k == 0 else [(first,) for first in range(m - k + 1)]
        for head in heads:
            tasks += [(args, *task) for task in _split(m, k, head)]
    return _walk_blocks(tasks, pool_size(workers, len(tasks)), n, render)


def _walk_blocks(tasks: list, workers: int, n: int,
                 render) -> Iterator[StratumSummary] | Iterator[tuple]:
    work = partial(_block, render=render)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from _items(_windowed(pool, work, tasks, workers + 1),
                              n, render)
    else:
        yield from _items(starmap(work, tasks), n, render)


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


def _items(blocks: Iterable[list], n: int, render) -> Iterator:
    """The tasks' rendered items as they come, or their records as
    summaries built in this process."""
    if render is None:
        return _summaries(blocks, _pair_cache(n)[0])
    return chain.from_iterable(blocks)


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
