"""The names the benchmark uses must exist in the package.

``perfbench/spans.py`` wraps functions by name from outside, so renaming
one of them would quietly break ``--trace 1``; the other perfbench scripts
import names inside functions, so a rename would fail only when the
benchmark runs.  The files are read and parsed or executed here, never
modified, and no bytecode is cached next to them.
"""

import ast
import importlib
import inspect
import sys
import types
from math import comb
from pathlib import Path

import pytest

from liestrata import cli, linalg, quadruples, sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def test_every_traced_name_exists():
    for layer, names in load_spans().TRACED.items():
        module = importlib.import_module("liestrata." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_every_name_perfbench_imports_exists():
    imported = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "liestrata"):
                imported.update((path.name, node.module, alias.name)
                                for alias in node.names)
    for script, module, name in imported:
        value = getattr(importlib.import_module(module), name, None)
        assert callable(value), f"{script}: {module}.{name}"
    # the scan sees the imports inside functions, not only the top level
    assert ("checks.py", "liestrata.triples", "parse_index_set") in imported


def test_summarize_counts_every_enumerated_stratum(monkeypatch):
    spans = load_spans()
    tracer = spans.Tracer()
    assert callable(sweep._summarize)
    monkeypatch.setattr(sweep, "_summarize",
                        tracer.counted("sweep.strata_enumerated",
                                       sweep._summarize))
    emitted = list(sweep.sweep_strata(5, size=3, workers=1))
    assert tracer.counters["sweep.strata_enumerated"] == 120  # C(10, 3)
    assert len(emitted) == 120
    # a label filter drops strata inside the leaf, after they are counted
    list(sweep.sweep_strata(5, size=3, filter="finite-1q2",
                            workers=1))
    assert tracer.counters["sweep.strata_enumerated"] == 240


@pytest.mark.parametrize("n, size, filters", [
    (5, 3, {"filter": "empty"}),
    (5, 3, {"filter": "nontrivial"}),
    (5, 3, {"discard_obstructed": True}),
    (7, 3, {"filter": "finite-1q2"}),
])
def test_summarize_counts_every_leaf_under_every_filter(monkeypatch, n, size,
                                                         filters):
    # a leaf the filters reject is still counted: the walk reads its status
    # from the prefix but leaves the verdict to _summarize
    tracer = load_spans().Tracer()
    monkeypatch.setattr(sweep, "_summarize",
                        tracer.counted("sweep.strata_enumerated",
                                       sweep._summarize))
    kept = list(sweep.sweep_strata(n, size=size, workers=1, **filters))
    leaves = comb(n * (n - 1) * (n - 2) // 6, size)  # 120 or 6 545
    assert tracer.counters["sweep.strata_enumerated"] == leaves
    assert len(kept) < leaves  # the filter rejects some of them


def test_sweep_strata_returns_a_generator():
    # the tracer pulls items one span at a time and closes what it got
    stream = sweep.sweep_strata(5, size=3, workers=1)
    assert inspect.isgenerator(stream)
    stream.close()


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("render", (cli._render_entries, cli._render_lines))
def test_traced_sweep_counts_one_item_per_emitted_stratum(render, workers):
    # sweep.strata_emitted counts the items the traced sweep yields; a
    # renderer puts a task's whole text on its first item, but still
    # returns one item per stratum
    tracer = load_spans().Tracer()
    traced = tracer.generator("sweep.sweep_strata", sweep.sweep_strata,
                              "sweep.strata_emitted")
    items = list(traced(5, size=3, workers=workers, render=render))
    assert tracer.counters["sweep.strata_emitted"] == len(items) == 120
    # a label filter: 16 of the 252 strata of size 5, and tasks that emit
    # none, which yield no item
    emitted = list(sweep.sweep_strata(5, size=5, filter="finite-1q2"))
    assert len(emitted) == 16
    list(traced(5, size=5, filter="finite-1q2", workers=workers,
                render=render))
    assert tracer.counters["sweep.strata_emitted"] == 120 + 16


def test_census_classify_decides_every_stratum_mod_2(monkeypatch):
    # census-classify's sweep: the GF(2) certificate settles every classify
    # call, so linalg.rank, which perfbench traces, is never called
    tracer = load_spans().Tracer()
    monkeypatch.setattr(sweep, "classify",
                        tracer.counted("quadruples.classify",
                                       quadruples.classify))
    rank = linalg.rank
    for name, module in list(sys.modules.items()):  # every binding of rank
        if name.split(".")[0] == "liestrata":
            for attr, value in list(vars(module).items()):
                if value is rank:
                    monkeypatch.setattr(module, attr, tracer.counted(
                        "linalg.rank", rank))
    emitted = list(sweep.sweep_strata(7, size=5,
                                      filter="finite-1q2"))
    assert len(emitted) == 2782
    assert tracer.counters["quadruples.classify"] == 2782
    assert tracer.counters["linalg.rank"] == 0


def census_specs() -> dict:
    """perfbench/run.py's CENSUS, read as a literal: the script is neither
    imported nor written."""
    path = PERFBENCH / "run.py"
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "CENSUS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no CENSUS")


def test_census_calls_parse_and_stay_within_the_strata_bound():
    # a removed or renamed option would otherwise fail only in the benchmark
    specs = census_specs()
    assert specs
    for name, spec in specs.items():
        args = cli.build_parser().parse_args(spec["argv"])
        assert args.func is cli.cmd_sweep, name
        m = comb(args.n, 3)
        top = m if args.max_size is None else min(args.max_size, m)
        sizes = [args.size] if args.size is not None else range(top + 1)
        assert sum(comb(m, k) for k in sizes) <= sweep.MAX_STRATA, name
