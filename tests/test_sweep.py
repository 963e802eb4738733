"""The depth-first sweep engine and the streamed CLI output, against
plain enumeration and the document the CLI used to build in memory."""

import json
import random
from functools import lru_cache

import pytest

from liestrata import (classify, obstruction_status, parse_index_set,
                       quadruple_table)
from liestrata.cli import main
from liestrata.jacobi import (OBSTRUCTION_AUTOMATIC, OBSTRUCTION_EMPTY,
                              OBSTRUCTION_NONTRIVIAL)
from liestrata.quadruples import (CLASSIFICATIONS, _PATTERN_LABELS,
                                  _UNCLASSIFIED)
from liestrata.report import SWEEP_SCHEMA
from liestrata.sweep import sweep_strata

from conftest import (MULT2_PLUS_MULT3, ONE_QUAD_MULT2, ONE_QUAD_MULT3,
                      ONE_QUAD_NON_SPANNING, TWO_QUADS_MULT2,
                      random_index_set)
from sweep_oracle import census, keep

OBSTRUCTIONS = (OBSTRUCTION_EMPTY, OBSTRUCTION_AUTOMATIC,
                OBSTRUCTION_NONTRIVIAL)
FILTERS = ([(None, None)] + [(o, None) for o in OBSTRUCTIONS]
           + [(None, c) for c in CLASSIFICATIONS])
# every size for n <= 5, sizes 0-3 for n = 6
SWEEPS = [(3, None), (4, None), (5, None), (6, 3)]


@lru_cache(maxsize=None)
def oracle(n, max_size, want_classification):
    total = n * (n - 1) * (n - 2) // 6
    top = total if max_size is None else max_size
    return census(n, range(top + 1), want_classification)


@pytest.mark.parametrize("n,max_size", SWEEPS)
@pytest.mark.parametrize("obstruction,classification", FILTERS)
def test_sweep_matches_plain_enumeration(n, max_size, obstruction,
                                         classification):
    ref = oracle(n, max_size, True)
    for discard in (False, True):
        expected = [s for s in ref
                    if keep(s, obstruction, classification, discard)]
        for workers in (1, 2) if n >= 5 else (1,):
            got = list(sweep_strata(n, max_size=max_size,
                                    obstruction=obstruction,
                                    classification=classification,
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
    got = list(sweep_strata(7, max_size=2, obstruction=obstruction))
    assert got == [s for s in ref if keep(s, obstruction)]
    assert all(s.classification is None for s in got)


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
        pattern = tuple(sorted(quadruple_table(lam).multiplicities().values()))
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
                 if keep(s, obstruction, classification, discard)]
    assert main(["sweep", *argv, "--format", "structured"]) == 0
    structured = capsys.readouterr().out
    assert structured == old_structured(argv, summaries)
    assert main(["sweep", *argv]) == 0
    assert capsys.readouterr().out == old_text(summaries)
    if not summaries:
        assert '"strata": [],' in structured


def test_streamed_sweep_with_a_size_and_no_strata(capsys):
    argv = ["--n", "4", "--size", "9"]
    assert main(["sweep", *argv, "--format", "structured"]) == 0
    assert capsys.readouterr().out == old_structured(argv, [])
