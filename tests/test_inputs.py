"""Input documents, the exit-code contract and the cached argument parser."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from liestrata import (CapExceededError, MalformedInputError, enumerate_theta,
                       gf2_coset_transversal, parse_index_set)
from liestrata import cli, linalg
from liestrata.linalg import GF2Matrix
from liestrata.sweep import WORKERS_ENV

from conftest import ONE_QUAD_MULT2


def run_main(argv, stdin=""):
    """Exit code, stdout and stderr of main(argv), with stdin as given."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


BAD_INDEX_SETS = [
    {"n": 7, "triples": [[1, 2]]},
    {"n": 7, "triples": 5},
    {"n": "7", "triples": []},
    {"triples": [[1, 2, 3]]},
    {"n": 4, "triples": [[1.0, 2, 3]]},
]
BAD_VECTORS = [
    {"n": 4, "triples": [[1, 2, 3]], "vectors": {"a": 5}},
    {"n": 4, "triples": [[1, 2, 3]], "vectors": [1]},
    {"n": 4, "triples": [[1, 2, 3]], "vectors": {"a": [0.5]}},
]


@pytest.mark.parametrize("doc", BAD_INDEX_SETS + BAD_VECTORS)
@pytest.mark.parametrize("command", ["analyze", "isomorphic", "jacobi"])
def test_malformed_json_exits_2(command, doc):
    rc, out, err = run_main([command, "-"], json.dumps(doc))
    assert rc == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("doc", BAD_INDEX_SETS)
def test_parse_index_set_rejects_malformed_json(doc):
    with pytest.raises(MalformedInputError):
        parse_index_set(json.dumps(doc))


def test_json_and_text_inputs_agree():
    lam = parse_index_set(ONE_QUAD_MULT2)
    doc = {"n": lam.n, "triples": [list(t) for t in reversed(lam.triples)],
           "vectors": {"a": [1] * 6, "b": ["1", "2", "1/2", "-1", "1", "1"]}}
    text = (ONE_QUAD_MULT2 + "\na: " + ", ".join(map(str, doc["vectors"]["a"]))
            + "\nb: " + ", ".join(doc["vectors"]["b"]) + "\n")
    assert parse_index_set(json.dumps(doc)) == lam
    assert run_main(["isomorphic", "-"], json.dumps(doc)) == \
        run_main(["isomorphic", "-"], text)


# ---------------------------------------------------------------------------
# The GF(2) coset transversal is capped before it is enumerated
# ---------------------------------------------------------------------------


def test_transversal_cap_is_checked_before_enumerating(monkeypatch):
    monkeypatch.setattr(linalg, "GF2_TRANSVERSAL_CAP", 3)
    # no columns: every one of the m coordinates is free
    assert len(gf2_coset_transversal(GF2Matrix((0, 0, 0), 0))) == 8
    with pytest.raises(CapExceededError):
        gf2_coset_transversal(GF2Matrix((0, 0, 0, 0), 0))


def test_transversal_cap_stops_a_huge_analysis():
    # 30 triples of Theta_7 leave 2^23 cosets, far above the cap
    text = "n=7; " + " ".join(str(t) for t in enumerate_theta(7)[:30])
    rc, out, err = run_main(["analyze", "-"], text)
    assert rc == 3 and out == ""
    assert "2^23" in err
    rc, _, _ = run_main(["cross-section", "-"], text)
    assert rc == 3


# ---------------------------------------------------------------------------
# One parser per process; the environment is read when a sweep runs
# ---------------------------------------------------------------------------


def test_parser_is_built_once_and_sweeps_read_the_environment(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []

    def recording_sweep(*args, **kwargs):
        seen.append(kwargs["workers"])
        return iter(())

    monkeypatch.setattr(cli, "sweep_strata", recording_sweep)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert run_main(["sweep", "--n", "4"])[0] == 0
    monkeypatch.setenv(WORKERS_ENV, "2")
    assert run_main(["sweep", "--n", "4"])[0] == 0
    assert run_main(["sweep", "--n", "4", "--workers", "3"])[0] == 0
    monkeypatch.setenv(WORKERS_ENV, "junk")
    assert run_main(["sweep", "--n", "4"])[0] == 0
    assert seen == [1, 2, 3, 1]


# ---------------------------------------------------------------------------
# Fuzz: malformed JSON and text never escape main and exit 0, 2 or 3
# ---------------------------------------------------------------------------

SMALL = st.integers(min_value=-1, max_value=8)
JUNK = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats(width=16)
    | st.text(alphabet="ab1/0- ", max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "triples", "mode", "vectors", "a", "b"]),
        inner, max_size=4),
    max_leaves=12)
TRIPLE = st.lists(SMALL, min_size=3, max_size=3)
NONZERO = st.integers(1, 4) | st.sampled_from(["-1", "2/3", "-5/2"])
ENTRY = st.one_of(st.integers(-3, 3),
                  st.sampled_from(["1", "-2/3", "1/0", "0", "x", ""]), JUNK)


@st.composite
def documents(draw):
    """A well-formed input document (at most 14 triples, n <= 8), with up
    to three parts replaced by junk or dropped."""
    n = draw(st.integers(3, 8))
    pool = [list(t) for t in enumerate_theta(n)]
    triples = draw(st.lists(st.sampled_from(pool), max_size=14,
                            unique_by=tuple))
    doc = {"n": n, "mode": draw(st.sampled_from(["theta", "upsilon"])),
           "triples": triples,
           "vectors": {name: draw(st.lists(NONZERO, min_size=len(triples),
                                           max_size=len(triples)))
                       for name in "ab"}}
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from(["n", "mode", "triples", "vectors",
                                     "drop", "triple", "entry"]))
        if part == "drop":
            doc.pop(draw(st.sampled_from(["n", "mode", "triples",
                                          "vectors"])), None)
        elif part == "triple" and isinstance(doc.get("triples"), list) \
                and doc["triples"]:
            doc["triples"][draw(st.integers(0, len(doc["triples"]) - 1))] = \
                draw(TRIPLE | JUNK)
        elif part == "entry" and isinstance(doc.get("vectors"), dict) \
                and doc["vectors"].get("a"):
            vec = doc["vectors"]["a"]
            vec[draw(st.integers(0, len(vec) - 1))] = draw(ENTRY)
        elif part in doc:
            doc[part] = draw(JUNK)
    return doc


def as_text(doc) -> str:
    """The text input format of a document, junk rendered with str()."""
    def token(t):
        return "(" + ",".join(map(str, t)) + ")" if isinstance(t, list) \
            else str(t)
    head = "".join(f"{key}={doc[key]}; " for key in ("n", "mode")
                   if key in doc)
    triples = doc.get("triples", [])
    lines = [head + (" ".join(map(token, triples))
                     if isinstance(triples, list) else str(triples))]
    vectors = doc.get("vectors", {})
    if isinstance(vectors, dict):
        lines += [f"{name}: " + (", ".join(map(str, vals))
                                 if isinstance(vals, list) else str(vals))
                  for name, vals in vectors.items()]
    return "\n".join(lines)


TOKENS = st.lists(st.one_of(
    TRIPLE.map(lambda t: "(%d,%d,%d)" % tuple(t)),
    st.sampled_from(["(1,2)", "(a,b,c)", "1,2,3", "(1,2,3,4)", "()", ";",
                     "n=", "n=5;", "mode=", "a:", "b:", "1/0", "2/3", "#",
                     "\n", "{", "}"])), max_size=20).map(" ".join)
SOURCES = st.one_of(
    documents().map(json.dumps),
    documents().map(as_text),
    st.tuples(documents().map(json.dumps), st.integers(1, 40))
    .map(lambda p: p[0][:p[1]]),                    # cut off: not JSON
    TOKENS)


@pytest.mark.parametrize("command", ["analyze", "isomorphic", "jacobi"])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(source=SOURCES)
def test_fuzzed_inputs_keep_the_exit_code_contract(command, source):
    rc, _, err = run_main([command, "-"], source)
    assert rc in (0, 2, 3)
    if rc:
        assert err.startswith("error: ")
