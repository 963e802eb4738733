"""The depth-first sweep engine and the streamed CLI output, against
plain enumeration and the document the CLI used to build in memory."""

import json
import os
import random
import time
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement
from math import comb

import pytest

from liestrata import (classify, obstruction_status, parse_index_set,
                       quadruple_table)
from liestrata import cli
from liestrata.cli import main
from liestrata.errors import CapExceededError
from liestrata.quadruples import (CLASSIFICATIONS, OBSTRUCTION_NONTRIVIAL,
                                  OBSTRUCTIONS, STATUS_LABELS,
                                  _PATTERN_LABELS, _UNCLASSIFIED,
                                  stratum_status)
from liestrata import sweep
from liestrata.report import SWEEP_SCHEMA
from liestrata.sweep import sweep_strata
from liestrata.triples import IndexSet, THETA, enumerate_theta

from conftest import (MULT2_PLUS_MULT3, ONE_QUAD_MULT2, ONE_QUAD_MULT3,
                      ONE_QUAD_NON_SPANNING, TWO_QUADS_MULT2, deadline,
                      random_index_set)
from sweep_oracle import census, classifying, keep

# every filter name, as (status, label): "empty" is both
FILTERS = ([(None, None)] + [(o, None) for o in OBSTRUCTIONS]
           + [(None, c) for c in CLASSIFICATIONS])
# every size for n <= 5, sizes 0-3 for n = 6 and 7; at n = 7 a sweep
# labels its strata only under a label filter
SWEEPS = [(3, None), (4, None), (5, None), (6, 3), (7, 3)]


@lru_cache(maxsize=None)
def oracle(n, max_size, want_classification):
    total = n * (n - 1) * (n - 2) // 6
    top = total if max_size is None else max_size
    return census(n, range(top + 1), want_classification)


@pytest.mark.parametrize("n,max_size", SWEEPS)
@pytest.mark.parametrize("obstruction,classification", FILTERS)
def test_sweep_matches_plain_enumeration(n, max_size, obstruction,
                                         classification):
    name = obstruction or classification
    ref = oracle(n, max_size, classifying(n, name))
    for discard in (False, True):
        expected = [s for s in ref if keep(s, name, discard)]
        for workers in (1, 2) if n >= 5 else (1,):
            got = list(sweep_strata(n, max_size=max_size, filter=name,
                                    discard_obstructed=discard,
                                    workers=workers))
            assert got == expected, (discard, workers)


def test_sweep_exact_sizes_match_plain_enumeration():
    ref = oracle(5, None, True)
    for k in range(11):
        assert list(sweep_strata(5, size=k)) == [s for s in ref
                                                  if s.size == k]
    assert list(sweep_strata(5, size=11)) == []


@pytest.mark.parametrize("obstruction", (None,) + OBSTRUCTIONS)
def test_sweep_without_classification_matches_plain_enumeration(obstruction):
    # n >= 7 leaves classification off unless a label filter asks for it
    ref = oracle(7, 2, False)
    got = list(sweep_strata(7, max_size=2, filter=obstruction))
    assert got == [s for s in ref if keep(s, obstruction)]
    assert all(s.classification is None for s in got)


@pytest.mark.parametrize("classification, want_classification",
                         [(None, False), (None, True), ("finite-1q2", True)])
def test_blocks_hold_plain_records(classification, want_classification):
    # what a pool worker pickles back: no Triple, no StratumSummary
    kept = set(CLASSIFICATIONS) if classification is None \
        else {classification}
    args = (7, 4, kept, want_classification)
    records = sweep._block(args, (0,), None)
    assert records
    for record in records:
        assert type(record) is tuple and len(record) == 4
        for field in record:
            if type(field) is tuple:
                assert all(type(i) is int for i in field)
            else:
                assert field is None or type(field) in (int, str)
    # with the CLI's renderers: one (text, obstruction, classification,
    # multiplicities) item per record, and still no Triple; the first item
    # carries the whole task's text and the others ""
    summaries = list(sweep._summaries([records], enumerate_theta(7)))
    for render in (cli._render_entries, cli._render_lines):
        items = sweep._block(args, (0,), None, render)
        assert type(items) is list and len(items) == len(records)
        for item, record in zip(items, records):
            assert type(item) is tuple and len(item) == 4
            text, obstruction, label, mults = item
            assert type(text) is str and type(obstruction) is str
            assert label is None or type(label) is str
            assert type(mults) is tuple and all(type(i) is int for i in mults)
            assert item[1:] == record[1:]
        assert items[0][0] == written(render, summaries)
        assert all(item[0] == "" for item in items[1:])


def check_tasks(m, k, tasks, bound):
    """Each task (prefix, run) holds 1 to ``bound`` strata, and the tasks
    cover consecutive lexicographic ranks of the k-subsets of range(m),
    counted by comb alone; returns the ranks [lo, hi) they cover."""

    @lru_cache(maxsize=None)
    def start(prefix):
        # rank of the first k-subset that begins with prefix = head + (p,):
        # it follows those before head's first subset and those that begin
        # with head + (j,), prev < j < p, C(m-1-prev, k-i) - C(m-p, k-i)
        # of them (the hockey-stick identity)
        if not prefix:
            return 0
        head, p = prefix[:-1], prefix[-1]
        i, prev = len(head), head[-1] if head else -1
        assert prev < p <= m - k + i
        return start(head) + comb(m - 1 - prev, k - i) - comb(m - p, k - i)

    lo = end = None
    for prefix, run in tasks:
        first, d = start(prefix), len(prefix)
        prev = prefix[-1] if prefix else -1
        if run is None:
            count = comb(m - 1 - prev, k - d)
        else:
            assert d < k and prev < run.start < run.stop <= m - k + d + 1
            first += comb(m - 1 - prev, k - d) - comb(m - run.start, k - d)
            count = comb(m - run.start, k - d) - comb(m - run.stop, k - d)
        assert 0 < count <= bound, (prefix, run)
        assert end is None or first == end, (prefix, run)
        lo = first if lo is None else lo
        end = first + count
    return lo, end


@pytest.mark.parametrize("m,k,first", [(20, 3, 0), (20, 10, 0), (20, 10, 7),
                                       (35, 4, 0), (35, 6, 2), (10, 2, 3)])
@pytest.mark.parametrize("bound", (1, 3, 100, 8192))
def test_split_runs_cover_the_block_in_order(monkeypatch, m, k, first, bound):
    monkeypatch.setattr(sweep, "LEAF_BOUND", bound)
    tasks = sweep._split(m, k, (first,))
    if comb(m - 1 - first, k - 1) <= bound:
        assert tasks == [((first,), None)]
    lo, hi = check_tasks(m, k, tasks, bound)
    # the block is every k-subset whose least index is first
    assert lo == comb(m, k) - comb(m - first, k)
    assert hi - lo == comb(m - 1 - first, k - 1)


# every size at n = 6; n = 7 and 8 at the sizes a capped census runs.  The
# tasks number at least C(m, k) / bound, so sizes with more than 2^16 times
# the bound strata are left to the larger bounds (n = 8, size 6 has
# 32 468 436 strata).
SPLIT_SIZES = [(6, k) for k in range(21)] + [(7, 4), (7, 5), (7, 6), (8, 6)]


@pytest.mark.parametrize("bound", (1, 3, 100, sweep.LEAF_BOUND))
def test_sweep_tasks_hold_at_most_the_bound(monkeypatch, bound):
    default = sweep.LEAF_BOUND
    monkeypatch.setattr(sweep, "LEAF_BOUND", bound)
    monkeypatch.setattr(sweep, "_walk_blocks", lambda tasks, *rest: tasks)
    for n, k in SPLIT_SIZES:
        m = comb(n, 3)
        if comb(m, k) > bound << 16:
            continue
        tasks = sweep.sweep_strata(n, size=k)
        assert all(args[:2] == (n, k) for args, _, _ in tasks)
        tasks = [task[1:] for task in tasks]
        assert check_tasks(m, k, tasks, bound) == (0, comb(m, k)), (n, k)
        # a (size, first) block within the bound stays one task
        for first in range(m - k + 1) if k else ():
            if comb(m - 1 - first, k - 1) <= bound:
                assert ((first,), None) in tasks
    if bound == default:
        # the benchmark's census sweeps: every block whole at size 4, the
        # five largest size-5 blocks cut at their second index
        assert [len(sweep.sweep_strata(7, size=k)) for k in (4, 5)] == \
            [32, 67]


@pytest.mark.parametrize("n,sizes", [(5, range(11)), (6, range(6))])
def test_block_tasks_match_the_oracle_slice(monkeypatch, n, sizes):
    rng = random.Random(1000 + n)
    theta = enumerate_theta(n)
    m, index = len(theta), {t: i for i, t in enumerate(theta)}
    ref = {k: [s for s in oracle(n, max(sizes), True) if s.size == k]
           for k in sizes}
    for _ in range(60):
        k = rng.choice(sizes)
        d = rng.randint(0, k)
        prefix = tuple(sorted(rng.sample(range(m - k + d), d)))
        low = prefix[-1] + 1 if prefix else 0
        run = None
        if d < k and rng.random() < 0.7:
            stop = rng.randint(low + 1, m - k + d + 1)
            run = range(rng.randint(low, stop - 1), stop)
        obstruction, classification = rng.choice(FILTERS)
        name = obstruction or classification
        discard = rng.random() < 0.3
        # the args sweep_strata gives each task of size k
        args = listed_tasks(monkeypatch, n, size=k, filter=name,
                            discard_obstructed=discard)[0][0]
        got = list(sweep._summaries([sweep._block(args, prefix, run)], theta))
        expected = []
        for s in ref[k]:
            combo = tuple(index[t] for t in s.triples)
            if combo[:d] == prefix and (run is None or combo[d] in run) \
                    and keep(s, name, discard):
                expected.append(s)
        assert got == expected, (k, prefix, run)


def record_leaf_statuses(monkeypatch):
    """A list that gets (theta indices, status) of every leaf the walk
    passes to _summarize, which then drops it."""
    seen = []

    def record(args, theta, combo, last, status):
        seen.append(((*combo, last) if last is not None else (), status))

    monkeypatch.setattr(sweep, "_summarize", record)
    return seen


@pytest.mark.parametrize("n,sizes", [(1, range(1)), (3, range(2)),
                                     (4, range(5)), (5, range(7)),
                                     (6, range(7)), (7, [4])])
def test_leaf_status_matches_the_quadruple_table(monkeypatch, n, sizes):
    # the walk hands each leaf a status read from its prefix: the prefix's
    # own, that of one new quadruple of multiplicity 1, or one recounted;
    # each must be the status of the stratum's multiplicities counted anew
    seen = record_leaf_statuses(monkeypatch)
    for k in sizes:
        assert list(sweep_strata(n, size=k)) == []
    theta = enumerate_theta(n)
    assert len(seen) == sum(comb(len(theta), k) for k in sizes)
    for indices, status in seen:
        lam = IndexSet(n, tuple(theta[i] for i in indices), THETA)
        mults = [len(pairs) for pairs in quadruple_table(lam).values()]
        assert status == stratum_status(mults), indices


def test_leaf_status_counts_a_quadruple_one_index_adds_twice(monkeypatch):
    # in theta one index never adds a quadruple twice (the quadruple and
    # the index fix the partner), so the walk is also run on made-up pair
    # tables over a few quadruple names, where it often does
    seen = record_leaf_statuses(monkeypatch)
    rng, m = random.Random(77), 8
    for _ in range(20):
        later = [{b: rng.choice("pqr") for b in range(a + 1, m)
                  if rng.random() < 0.5} for a in range(m)]
        monkeypatch.setattr(sweep, "_pair_cache",
                            lambda n: (list(range(m)), later))
        for k in range(m + 1):
            seen.clear()
            assert sweep._block((0, k, set(), False), (), None) \
                == []
            assert [indices for indices, _ in seen] == \
                list(combinations(range(m), k))
            for indices, status in seen:
                mults = Counter(later[a][b] for a, b in
                                combinations(indices, 2) if b in later[a])
                assert status == stratum_status(mults.values()), indices


def test_status_labels_are_those_stratum_status_gives():
    # every multiplicity pattern of up to four quadruples of multiplicity
    # 1 to 4: more quadruples or a higher multiplicity add no label
    found = {status: set() for status in OBSTRUCTIONS}
    for size in range(5):
        for mults in combinations_with_replacement(range(1, 5), size):
            status, labels = stratum_status(mults)
            found[status].update(labels)
    assert found == {status: set(labels)
                     for status, labels in STATUS_LABELS.items()}
    # each label belongs to one status
    assert sorted(chain.from_iterable(STATUS_LABELS.values())) == \
        sorted(CLASSIFICATIONS)


def test_pattern_labels_contain_every_classify_verdict():
    # the walk drops a stratum on its pattern alone; classify must agree
    rng = random.Random(41)
    sets = [parse_index_set(text) for text in (
        ONE_QUAD_MULT2, ONE_QUAD_MULT3, MULT2_PLUS_MULT3, TWO_QUADS_MULT2,
        ONE_QUAD_NON_SPANNING)]
    sets += [random_index_set(rng, size_max=14) for _ in range(3000)]
    seen = set()
    for lam in sets:
        if obstruction_status(lam) != OBSTRUCTION_NONTRIVIAL:
            continue
        pattern = tuple(sorted(map(len, quadruple_table(lam).values())))
        label = classify(lam)
        assert label in _PATTERN_LABELS.get(pattern, _UNCLASSIFIED)
        seen.add(label)
    assert len(seen) >= 4


# ---------------------------------------------------------------------------
# CLI output: streamed, but byte for byte what the in-memory version wrote
# ---------------------------------------------------------------------------


def old_counts(summaries):
    obstruction, classification = {}, {}
    for s in summaries:
        obstruction[s.obstruction] = obstruction.get(s.obstruction, 0) + 1
        if s.classification is not None:
            classification[s.classification] = \
                classification.get(s.classification, 0) + 1
    return {"total": len(summaries),
            "obstruction": dict(sorted(obstruction.items())),
            "classification": dict(sorted(classification.items()))}


def old_structured(argv, summaries):
    """The whole document built in memory, as the CLI once printed it."""
    opts = dict(zip(argv[::2], argv[1::2]))
    doc = {
        "schema": SWEEP_SCHEMA,
        "n": int(opts["--n"]),
        "size": int(opts["--size"]) if "--size" in opts else None,
        "max_size": None,
        "filter": opts.get("--filter"),
        "discard_obstructed": "--discard-obstructed" in argv,
        "strata": [{"triples": [list(t) for t in s.triples], "size": s.size,
                    "obstruction": s.obstruction,
                    "classification": s.classification,
                    "multiplicities": list(s.multiplicities)}
                   for s in summaries],
        "counts": old_counts(summaries),
    }
    return json.dumps(doc, indent=2) + "\n"


def old_text(summaries):
    lines = []
    for s in summaries:
        triples = " ".join(str(t) for t in s.triples) if s.triples \
            else "(empty)"
        cls = s.classification if s.classification is not None else "-"
        lines.append(f"size={s.size} {triples} obstruction={s.obstruction} "
                     f"classification={cls}")
    counts = old_counts(summaries)
    lines.append(f"# total: {counts['total']}")
    lines += [f"# obstruction {k}: {v}"
              for k, v in counts["obstruction"].items()]
    lines += [f"# classification {k}: {v}"
              for k, v in counts["classification"].items()]
    return "\n".join(lines) + "\n"


def old_entry(s):
    """A summary's element of the "strata" list, as json.dumps writes it at
    depth 2 of the whole document."""
    return json.dumps({"triples": [list(t) for t in s.triples],
                       "size": s.size, "obstruction": s.obstruction,
                       "classification": s.classification,
                       "multiplicities": list(s.multiplicities)},
                      indent=2).replace("\n", "\n    ")


def written(render, summaries):
    """What the CLI's writer puts out for these strata, in a row: their
    lines of old_text, or their old_entry elements joined as the document
    joins them."""
    if render is cli._render_lines:
        return "".join(old_text(summaries).splitlines(keepends=True)
                       [:len(summaries)])
    return ",\n    ".join(map(old_entry, summaries))


# n = 1 and 2 have an empty theta and only the size-0 stratum
@pytest.mark.parametrize("n,max_size", [(1, None), (2, None), (5, None),
                                        (6, 3)])
@pytest.mark.parametrize("workers", (1, 2))
def test_rendered_stream_matches_plain_enumeration(monkeypatch, n, max_size,
                                                   workers):
    # a tiny leaf bound splits every block of more than three strata
    monkeypatch.setattr(sweep, "LEAF_BOUND", 3)
    tasks = []
    walk = sweep._walk_blocks
    monkeypatch.setattr(sweep, "_walk_blocks",
                        lambda listed, *rest: tasks.extend(listed)
                        or walk(listed, *rest))
    ref = oracle(n, max_size, True)
    theta = enumerate_theta(n)
    for render in (cli._render_lines, cli._render_entries):
        tasks.clear()
        got = list(sweep_strata(n, max_size=max_size, workers=workers,
                                render=render))
        assert [s[1:] for s in got] == [s[1:] for s in ref]
        # task by task, the first item carries the task's text, the rest ""
        start = 0
        for task in tasks:
            summaries = list(sweep._summaries([sweep._block(*task)], theta))
            items = got[start:start + len(summaries)]
            assert items[0][0] == written(render, summaries), task
            assert all(item[0] == "" for item in items[1:]), task
            start += len(summaries)
        assert start == len(got)
        # the writer puts the texts in a row, the document's separator
        # between structured ones
        sep = "" if render is cli._render_lines else ",\n    "
        assert sep.join(s[0] for s in got if s[0]) == written(render, ref)


GOLDEN = [
    (["--n", "4"], 4, None, None, False),
    (["--n", "5", "--filter", "finite-1q2"], 5, None, "finite-1q2", False),
    (["--n", "5", "--filter", "empty", "--discard-obstructed"],
     5, "empty", None, True),
]


@pytest.mark.parametrize("argv,n,obstruction,classification,discard", GOLDEN)
def test_streamed_sweep_output_is_unchanged(capsys, argv, n, obstruction,
                                            classification, discard):
    summaries = [s for s in oracle(n, None, True)
                 if keep(s, obstruction or classification, discard)]
    # compared by lines (equal exactly when the strings are): a failure
    # then names the first differing line instead of diffing the document
    assert main(["sweep", *argv, "--format", "structured"]) == 0
    structured = capsys.readouterr().out
    assert structured.splitlines(keepends=True) == \
        old_structured(argv, summaries).splitlines(keepends=True)
    assert main(["sweep", *argv]) == 0
    assert capsys.readouterr().out.splitlines(keepends=True) == \
        old_text(summaries).splitlines(keepends=True)
    if not summaries:
        assert '"strata": [],' in structured


# paths GOLDEN misses: blocks walked in a process pool, and n = 7 with
# classification off, which writes null and "-"
@pytest.mark.parametrize("argv,n,sizes,want_classification", [
    (["--n", "5", "--workers", "2"], 5, range(11), True),
    (["--n", "7", "--size", "2"], 7, [2], False),
])
def test_streamed_sweep_output_is_unchanged_off_the_golden_paths(
        capsys, argv, n, sizes, want_classification):
    summaries = census(n, sizes, want_classification)
    # compared by lines: a failure then names the first differing line
    # instead of diffing the whole document
    for fmt, expected in (("structured", old_structured(argv, summaries)),
                          ("text", old_text(summaries))):
        assert main(["sweep", *argv, "--format", fmt]) == 0
        assert capsys.readouterr().out.splitlines(keepends=True) == \
            expected.splitlines(keepends=True)


@pytest.mark.parametrize("name,labelled", [
    ("automatic", False), ("empty", False), ("unobstructed", True)])
def test_cli_labels_n_7_strata_only_under_a_label_filter(capsys, name,
                                                          labelled):
    # "empty" is a label too, but as a status it leaves classification off
    assert main(["sweep", "--n", "7", "--size", "2", "--filter", name,
                 "--format", "structured"]) == 0
    strata = json.loads(capsys.readouterr().out)["strata"]
    assert strata
    assert {s["classification"] for s in strata} == \
        ({name} if labelled else {None})


def test_streamed_sweep_with_a_size_and_no_strata(capsys):
    argv = ["--n", "4", "--size", "9"]
    assert main(["sweep", *argv, "--format", "structured"]) == 0
    assert capsys.readouterr().out == old_structured(argv, [])


# ---------------------------------------------------------------------------
# The forked pool: results in task order, and no worker left behind
# ---------------------------------------------------------------------------

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def listed_tasks(monkeypatch, *args, **kwargs):
    """The tasks sweep_strata(*args, **kwargs) walks, in order."""
    with monkeypatch.context() as m:
        m.setattr(sweep, "_walk_blocks", lambda tasks, *rest: tasks)
        return sweep_strata(*args, **kwargs)


@pytest.fixture
def two_workers(monkeypatch):
    """A pool of two workers and tasks of at most three strata; the
    sweep's tasks are walked in forked workers, never in this process."""
    monkeypatch.setattr(sweep.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sweep, "LEAF_BOUND", 3)
    caller, block = os.getpid(), sweep._block

    def patch(bad_task, fault):
        def faulty(*task, render=None):
            assert os.getpid() != caller, "a pooled task ran in the caller"
            if task == bad_task:
                fault()
            return block(*task, render=render)
        monkeypatch.setattr(sweep, "_block", faulty)
    return patch


def test_pool_raises_a_failed_task_in_its_place(monkeypatch, two_workers):
    tasks = listed_tasks(monkeypatch, 5, size=3)
    serial = list(sweep_strata(5, size=3))
    before = sum(len(sweep._block(*task)) for task in tasks[:5])
    assert 0 < before < len(serial)

    def fail():
        raise CapExceededError("task 5 fails")

    two_workers(tasks[5], fail)
    got = []
    with deadline(30), pytest.raises(CapExceededError, match="task 5 fails"):
        for summary in sweep_strata(5, size=3, workers=2):
            got.append(summary)
    assert got == serial[:before]
    assert_no_child_left()


def test_pool_raises_when_a_worker_dies(monkeypatch, two_workers):
    tasks = listed_tasks(monkeypatch, 5, size=3)
    two_workers(tasks[4], lambda: os._exit(3))
    with deadline(30), pytest.raises(RuntimeError, match="ended before"):
        list(sweep_strata(5, size=3, workers=2))
    assert_no_child_left()


def test_pool_yields_results_that_come_early_in_task_order(monkeypatch,
                                                          two_workers):
    tasks = listed_tasks(monkeypatch, 5, size=3)
    serial = list(sweep_strata(5, size=3))
    # the other worker walks the next tasks while the first one sleeps
    two_workers(tasks[0], lambda: time.sleep(0.3))
    with deadline(30):
        assert list(sweep_strata(5, size=3, workers=2)) == serial
    assert_no_child_left()


def test_closing_a_pooled_sweep_reaps_its_workers(two_workers):
    two_workers(None, None)
    with deadline(30):
        stream = sweep_strata(6, max_size=6, workers=2)
        assert next(stream).size == 0
        stream.close()
    assert_no_child_left()


# at most three strata a task, n = 5 makes 465 tasks, n = 5 up to size 7
# makes 427 and n = 6 up to size 3 makes 515: each remainder mod 3 once
@pytest.mark.parametrize("n,max_size,short", [(5, None, 0), (5, 7, 1),
                                              (6, 3, 2)])
def test_three_workers_deal_uneven_tasks_in_order(monkeypatch, n, max_size,
                                                  short):
    monkeypatch.setattr(sweep.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(sweep, "LEAF_BOUND", 3)
    assert len(listed_tasks(monkeypatch, n, max_size=max_size)) % 3 == short
    for render in (None, cli._render_lines, cli._render_entries):
        with deadline(60):
            pooled = list(sweep_strata(n, max_size=max_size, workers=3,
                                       render=render))
        assert pooled == list(sweep_strata(n, max_size=max_size,
                                           render=render)), render
    assert_no_child_left()
