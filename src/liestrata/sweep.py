"""Deterministic census sweeps over all index sets inside Theta_n.

Strata are enumerated by size and then lexicographically by triple sequence,
in tasks (prefix, run): the strata that start with the theta indices prefix
and continue with an index in run.  A task is walked depth first.  The walk
keeps the multiplicity of the quadruple of every aligned pair among the
chosen indices and, for every later index, the quadruples it would add;
adding an index raises the first and extends the second, removing it
undoes both.  A stratum's last index is never added: its status
(quadruples.stratum_status: obstruction status and the labels it can still
get) is read from the prefix's.  An index that adds no quadruple keeps the
prefix's status, one that adds a single quadruple the prefix lacks gives
that quadruple multiplicity 1, and only the others count their quadruples
in and out again.  So a stratum is dropped before its triples are built,
and classify runs only when its multiplicity pattern leaves more than one
label open; it then decides whether the w-vectors span the null space
mod 2, and computes a rational rank only when that certificate falls
short.

A task returns plain records, not summaries: (theta indices, obstruction,
classification, multiplicities).  Without a renderer the calling process
turns each record into a StratumSummary.  With one, the process that walks
a task, a pool worker or the caller, also renders it: render(records, n)
turns the task's records into the items the sweep yields.

A pooled sweep forks its workers when its first item is asked for, after
the pair table is built, so they share it.  The caller deals task indices
into one pipe; a free worker takes the next and writes one frame into a
pipe of its own: the index, the size of the pickled result and the
pickle (see _serve).  Of a frame that comes early the caller reads only
the index and leaves the rest in the pipe until its turn, so results
come out in task order.  A worker whose pipe is full (1 MiB on Linux)
waits, and no task holds more than LEAF_BOUND strata (see _split), so
neither side holds more than a few tasks' results.  Where os.fork is
missing the sweep runs serially.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache, partial
from itertools import starmap
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import CapExceededError, MalformedInputError
from .quadruples import (CLASSIFICATIONS, EMPTY, STATUS_LABELS, classify,
                         stratum_status, _pair_info)
from .triples import IndexSet, THETA, Triple, enumerate_theta

# No sweep has n above this.  The pair table grows with the square of
# C(n, 3): building it took 0.41 s and 36 MB peak RSS at n = 16, 1.7 s and
# 90 MB at n = 20, 5.4 s and 258 MB at n = 24 (Python 3.11, 2 vCPUs).
MAX_N = 16
# No sweep visits more strata than this, the least power of two above the
# 32 468 436 of n = 8 at size 6, the largest sweep the tests list.
MAX_STRATA = 1 << 25
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
    """theta, and for each index a its aligned partners b > a -> quadruple."""
    theta = enumerate_theta(n)
    later = [{} for _ in theta]
    for b in range(len(theta)):
        for a in range(b):
            info = _pair_info(theta[a], theta[b])
            if info is not None:
                later[a][b] = info[0]
    return theta, later


def _summarize(args, theta: list[Triple], combo: list[int], last: int | None,
               status: tuple) -> tuple | None:
    """Theta indices, obstruction and classification of the stratum of
    theta indices ``combo`` and ``last`` (just ``combo`` when ``last`` is
    None), or None when its label is not among those the task's ``args``
    keep.

    The walk calls it once for every stratum, kept or not.  ``status`` is
    stratum_status of the stratum's multiplicities, which the walk reads
    from the prefix ``combo`` (see _block): the obstruction status and
    the labels the stratum can still get.  The filter sees those first;
    classify runs only when more than one label is open.  The walk adds
    the sorted multiplicities to a kept stratum's record.
    """
    n, _, kept, want_cls = args
    obstruction, labels = status
    if kept.isdisjoint(labels):
        return None
    indices = (*combo, last) if last is not None else ()
    classification = None
    if want_cls:
        if len(labels) == 1:
            classification = labels[0]
        else:
            triples = tuple(theta[i] for i in indices)
            classification = classify(IndexSet(n, triples, THETA))
            if classification not in kept:
                return None
    return indices, obstruction, classification


def _block(args, prefix: tuple[int, ...], run: range | None,
           render: Callable[[list, int], list] | None = None) -> list:
    """The matching records of the strata of size k that start with the
    theta indices ``prefix`` and continue with an index in ``run``, or
    with any index when ``run`` is None; ``render(records, n)`` of them
    when a renderer is given."""
    n, k = args[0], args[1]
    theta, later = _pair_cache(n)
    combo: list[int] = []
    counter: dict = {}
    # pending[c]: the quadruples that index c adds to the stratum combo
    pending: list[list] = [[] for _ in theta]
    out: list[tuple] = []
    slack, fixed = len(theta) - k, len(prefix)
    single = stratum_status((1,))  # that of any stratum with a mult 1

    def leaves(candidates: range) -> None:
        # combo holds k - 1 indices; each candidate completes a stratum
        base = stratum_status(counter.values())
        prefix_mults = None
        for c in candidates:
            added = pending[c]
            if not added or len(added) == 1 and added[0] not in counter:
                # the prefix's multiplicities, or those and a 1
                record = _summarize(args, theta, combo, c,
                                    single if added else base)
                if record is None:
                    continue
                if prefix_mults is None:
                    prefix_mults = tuple(sorted(counter.values()))
                mults = (1, *prefix_mults) if added else prefix_mults
            else:
                for q in added:
                    counter[q] = counter.get(q, 0) + 1
                record = _summarize(args, theta, combo, c,
                                    stratum_status(counter.values()))
                if record is not None:
                    mults = tuple(sorted(counter.values()))
                for q in added:
                    m = counter[q] - 1
                    if m:
                        counter[q] = m
                    else:
                        del counter[q]
                if record is None:
                    continue
            out.append((*record, mults))

    def descend(depth: int) -> None:
        # combo holds `depth` < k indices; the first len(prefix) are prefix
        if depth < fixed:
            candidates = range(prefix[depth], prefix[depth] + 1)
        elif depth == fixed and run is not None:
            candidates = run
        else:
            candidates = range(combo[-1] + 1 if combo else 0,
                               slack + depth + 1)
        if depth + 1 == k:
            leaves(candidates)
            return
        for c in candidates:
            added = pending[c]
            for q in added:
                counter[q] = counter.get(q, 0) + 1
            combo.append(c)
            for b, q in later[c].items():
                pending[b].append(q)
            descend(depth + 1)
            for b in later[c]:
                pending[b].pop()
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
        record = _summarize(args, theta, combo, None, stratum_status(()))
        if record is not None:
            out.append((*record, ()))
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
                 filter: str | None = None, discard_obstructed: bool = False,
                 workers: int = 1,
                 render: Callable[[list, int], list] | None = None
                 ) -> Iterator[StratumSummary] | Iterator[tuple]:
    """Yield matching strata in (size, lexicographic) order, classified
    for n <= 6 or when ``filter`` is a label and not a status.

    ``filter`` keeps the strata of one classification label, or of the
    labels of one obstruction status (quadruples.STATUS_LABELS).

    Without ``render`` each stratum is a StratumSummary.  With it, the
    sweep yields the items ``render(records, n)`` returns for each task's
    records (theta indices into ``enumerate_theta(n)``, obstruction,
    classification, multiplicities).  ``render`` may be any callable: pool
    workers are forked, so they inherit it, but its items and any
    exception a task raises must pickle, since they cross a pipe.

    The call itself checks its arguments, counts the strata, builds the
    pair table and lists the tasks, so a refused sweep (MalformedInputError
    for workers < 1, a negative size, size with max_size, or an unknown
    filter; IndexOutOfRangeError for n < 1; CapExceededError for n above
    MAX_N or more than MAX_STRATA strata) raises before its caller has
    written anything.  The returned generator then walks the tasks, each
    of at most LEAF_BOUND strata, serially or in at most ``workers`` forked
    processes (see pool_size), which start when its first item is asked
    for.  Ask for a pool only from a process that runs no other thread.
    """
    for name, value, least in (("workers", workers, 1), ("size", size, 0),
                               ("max_size", max_size, 0)):
        if value is not None and value < least:
            raise MalformedInputError(f"{name}={value} is below {least}")
    if size is not None and max_size is not None:
        raise MalformedInputError("size and max_size exclude each other")
    if filter not in (None, *STATUS_LABELS, *CLASSIFICATIONS):
        raise MalformedInputError(f"unknown filter {filter!r}")
    # the labels a kept stratum may have
    kept = set(CLASSIFICATIONS if filter is None
               else STATUS_LABELS.get(filter, (filter,)))
    if discard_obstructed:
        kept.discard(EMPTY)
    if n > MAX_N:
        raise CapExceededError(f"n={n} exceeds the ceiling {MAX_N}")
    m = len(enumerate_theta(n))
    top = m if max_size is None else min(max_size, m)
    sizes = range(top + 1) if size is None else range(size, min(size, m) + 1)
    count = sum(comb(m, k) for k in sizes)
    if count > MAX_STRATA:
        raise CapExceededError(f"{count} strata exceed the bound {MAX_STRATA}")
    _pair_cache(n)  # here, so that forked workers share it
    want_cls = n <= 6 or filter not in (None, *STATUS_LABELS)
    tasks = []
    for k in sizes:
        args = (n, k, kept, want_cls)
        heads = [()] if k == 0 else [(first,) for first in range(m - k + 1)]
        for head in heads:
            tasks += [(args, *task) for task in _split(m, k, head)]
    return _walk_blocks(tasks, pool_size(workers, len(tasks)), n, render)


def _walk_blocks(tasks: list, workers: int, n: int,
                 render) -> Iterator[StratumSummary] | Iterator[tuple]:
    work = partial(_block, render=render)
    if workers > 1:
        blocks = _forked(work, tasks, workers)
    else:
        blocks = starmap(work, tasks)
    if render is None:
        yield from _summaries(blocks, _pair_cache(n)[0])
    else:
        for block in blocks:
            yield from block


def _forked(work, tasks: list, workers: int) -> Iterator:
    """``work(*task)`` for each task, in order, from ``workers`` forked
    processes (see the module docstring and _serve).  However the caller
    leaves (done, a close, a raised task, a dead worker, Ctrl-C), every
    worker is killed and reaped: one still walking would only stop at its
    next write."""
    import fcntl
    import pickle
    from select import PIPE_BUF, select
    from signal import SIGKILL

    tickets, deal = os.pipe()
    pipes, pids, ready, dealt = [], [], {}, 0
    try:
        for _ in range(workers):
            r, fd = os.pipe()
            try:
                # A worker whose pipe is full waits.  Linux's default 64 KiB
                # often stopped one while the caller waited on another's
                # slow task; 1 MiB lets it run ahead.
                fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, 1 << 20)
            except (AttributeError, OSError):
                pass  # not Linux, or over the pipe size limit
            pipes.append(r)
            pid = os.fork()
            if not pid:
                _serve(work, tasks, tickets, [deal, *pipes], fd)
            pids.append(pid)
            os.close(fd)
        for i in range(len(tasks)):
            # at most PIPE_BUF bytes of tickets are dealt and not taken, so
            # a write of them is atomic and never waits on a full pipe
            stop = min(i + PIPE_BUF // 4, len(tasks))
            if dealt < stop:
                os.write(deal, b"".join(t.to_bytes(4, "little")
                                        for t in range(dealt, stop)))
                dealt = stop
            while i not in ready:  # task index -> the pipe its result is in
                quiet = [pipe for pipe in pipes if pipe not in ready.values()]
                for pipe in select(quiet, [], [])[0]:
                    ready[int.from_bytes(_read(pipe, 4), "little")] = pipe
            pipe = ready.pop(i)
            size = int.from_bytes(_read(pipe, 8), "little")
            ok, result = pickle.loads(_read(pipe, size))
            if not ok:
                raise result
            yield result
    finally:
        for fd in (tickets, deal, *pipes):
            os.close(fd)
        for pid in pids:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _read(fd: int, size: int) -> bytearray:
    """``size`` bytes from the pipe ``fd``; RuntimeError if it ends first,
    as it does when its worker dies."""
    data = bytearray(size)
    view, at = memoryview(data), 0
    while at < size:
        count = os.readv(fd, [view[at:]])
        if not count:
            raise RuntimeError("a sweep worker ended before its result")
        at += count
    return data


def _serve(work, tasks: list, tickets: int, inherited: list, fd: int) -> None:
    """A pool worker's whole life: take task indices from the pipe
    ``tickets`` until it ends, and for each write to the pipe ``fd`` one
    frame: the index in 4 bytes, then the size in 8 bytes and the bytes of
    the pickle of (True, work(*task)), or of (False, exception) when the
    task raises or its result does not pickle.  An exception that does
    not pickle either is sent as a RuntimeError that names it.  A worker
    takes indices in order, so its results are in order too.  It first
    closes the caller's pipe ends it ``inherited``, and it leaves
    sys.stdout unflushed: that buffer may hold the caller's output."""
    import pickle

    status = 1
    try:
        for other in inherited:
            os.close(other)
        with open(fd, "wb") as out:
            while ticket := os.read(tickets, 4):
                index = int.from_bytes(ticket, "little")
                try:
                    frame = pickle.dumps((True, work(*tasks[index])))
                except Exception as exc:
                    try:
                        frame = pickle.dumps((False, exc))
                    except Exception:
                        frame = pickle.dumps((False, RuntimeError(
                            f"a sweep task raised {exc!r}, which does not"
                            " pickle")))
                out.write(ticket + len(frame).to_bytes(8, "little"))
                out.write(frame)
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _summaries(blocks: Iterable[list[tuple]],
               theta: list[Triple]) -> Iterator[StratumSummary]:
    triple = theta.__getitem__
    for block in blocks:
        for indices, obstruction, classification, mults in block:
            yield StratumSummary(tuple(map(triple, indices)), obstruction,
                                 classification, mults)


def pool_size(workers: int, tasks: int) -> int:
    """The worker processes worth starting: no more than the tasks or the
    CPUs this process may run on (its affinity mask where the platform
    has one, else os.cpu_count()), and one where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, tasks, cpus)


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
