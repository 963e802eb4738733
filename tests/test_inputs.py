"""Input documents, the exit-code contract and the cached argument parser."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import starmap
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from liestrata import (CapExceededError, IndexOutOfRangeError,
                       MalformedInputError, StructureVector, cross_section,
                       delta_domain, enumerate_theta, gf2_coset_transversal,
                       gf2_rank, parse_index_set)
from liestrata import cli, errors, linalg, sweep, triples
from liestrata.sweep import pool_size

from conftest import (FILIFORM4, MULT2_PLUS_MULT3, ONE_QUAD_MULT2,
                      ONE_QUAD_MULT3, TWO_QUADS_MULT2)


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
# a mode that is no string is a malformed shape, not an unknown mode
BAD_MODES = [
    {"n": 4, "mode": None, "triples": []},
    {"n": 4, "mode": [], "triples": []},
    {"n": 4, "mode": {}, "triples": []},
]


@pytest.mark.parametrize("doc", BAD_INDEX_SETS + BAD_VECTORS + BAD_MODES)
@pytest.mark.parametrize("command", ["analyze", "isomorphic", "jacobi"])
def test_malformed_json_exits_2(command, doc):
    rc, out, err = run_main([command, "-"], json.dumps(doc))
    assert rc == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("doc", BAD_INDEX_SETS + BAD_MODES)
def test_parse_index_set_rejects_malformed_json(doc):
    with pytest.raises(MalformedInputError):
        parse_index_set(json.dumps(doc))


@pytest.mark.parametrize("text", ["(1,2,3)", "n=4; (1,2)", "n=4; (1,2,3,4)",
                                  "n=4; 1,2,3", "n=4x; (1,2,3)", "n=; (1,2,3)",
                                  "n=4; (1,x,3)", "n=4; (1,2,3.0)",
                                  pytest.param("n=" + "9" * 5000,
                                               id="n=<5000 digits>")])
def test_parse_index_set_rejects_malformed_text(text):
    with pytest.raises(MalformedInputError):
        parse_index_set(text)


# ---------------------------------------------------------------------------
# Every input error is a MalformedInputError or another StratumError
# ---------------------------------------------------------------------------


# past the int-string limit of 4300 digits; 1e999999999 would not finish
# expanding if the exponent were not checked first
TOO_LONG_RATIONALS = [
    "1e5000", "1e-5000", "1e999999999", "1e4300", "1e-4300",
    pytest.param("1" * 5000, id="<5000 digits>"),
    pytest.param("1/" + "3" * 5000, id="1/<5000 digits>"),
    pytest.param("1" * 4000 + "e301", id="<4000 digits>e301"),
    pytest.param("0." + "0" * 4000 + "1e-300", id="0.<4001 digits>e-300"),
]


@pytest.mark.parametrize("text", ["x", "1/0", "nan", "inf", "", "--",
                                  *TOO_LONG_RATIONALS])
def test_bad_rational_is_malformed_input(text):
    with pytest.raises(MalformedInputError):
        cli._fraction(text)


# argparse on Python 3.11 reads --opt=-- as []
@pytest.mark.parametrize("argv", [["cross-section", "-", "--center="],
                                  ["cross-section", "-", "--center=--"],
                                  ["cross-section", "-", "--c=--"],
                                  ["sweep", "--n=--"],
                                  ["sweep", "--n", "4", "--filter=--"],
                                  ["sweep", "--n", "4", "--filter", "bogus"],
                                  ["cross-section", "-", "--c=1e5000"],
                                  ["cross-section", "-", "--c=1e-5000"],
                                  ["cross-section", "-",
                                   "--center=1e5000,1,1,1,1,1"],
                                  ["cross-section", "-", "--exponent=1e5000"],
                                  ["cross-section", "-", "--c=1e999999999"]])
def test_malformed_option_exits_2(argv):
    rc, out, err = run_main(argv, ONE_QUAD_MULT2)
    assert rc == 2 and out == ""
    assert err.startswith("error: ")


LATIN1 = "n=4; (1,2,3)  # caf\u00e9".encode("latin-1")


def test_non_utf8_input_file_exits_2(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(LATIN1)
    rc, out, err = run_main(["analyze", str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "not UTF-8" in err


def test_non_utf8_stdin_exits_2():
    stdin = io.TextIOWrapper(io.BytesIO(LATIN1), encoding="utf-8")
    err = io.StringIO()
    with mock.patch("sys.stdin", stdin), redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        assert cli.main(["analyze", "-"]) == 2
    assert err.getvalue().startswith("error: -: not UTF-8")


def test_a_program_fault_is_not_an_input_error(monkeypatch):
    # a bare ValueError or KeyError from inside a command is a bug: it must
    # surface, not exit 2 as if the input were at fault
    for exc in (ValueError, KeyError):
        def broken(*args, **kwargs):
            raise exc("bug")
        monkeypatch.setattr(cli, "build_analysis_report", broken)
        with pytest.raises(exc):
            run_main(["analyze", "-"], FILIFORM4)


# The exit code of each liestrata error: 3 for a violated precondition, 2
# for an input error.  A new error class needs its own entry.
EXIT_CODES = {
    errors.IndexOutOfRangeError: 2, errors.OrderViolationError: 2,
    errors.DuplicateTripleError: 2, errors.ModeError: 3,
    errors.MalformedInputError: 2, errors.DimensionMismatchError: 2,
    errors.NotAlignedError: 2, errors.OutsideDomainError: 3, errors.UnsupportedShapeError: 3,
    errors.CapExceededError: 3,
}


def test_each_error_class_keeps_its_exit_code(monkeypatch):
    assert set(errors.StratumError.__subclasses__()) == set(EXIT_CODES)
    assert set(cli.PRECONDITION_ERRORS) == {
        exc for exc, code in EXIT_CODES.items() if code == 3}
    for exc, code in EXIT_CODES.items():
        def refuse(*args, exc=exc, **kwargs):
            raise exc("refused")
        monkeypatch.setattr(cli, "build_analysis_report", refuse)
        assert run_main(["analyze", "-"], FILIFORM4) == \
            (code, "", "error: refused\n"), exc


NAMES = st.sampled_from(["a", "b", "c", "n", "mode", "x1", "mu_2"])
ENTRIES = st.integers(-9, 9).filter(bool).map(str) \
    | st.sampled_from(["1/2", "-3/7", "5/3", "-22"])


@st.composite
def documents_in_both_formats(draw):
    """An index set of either mode (n <= 8) with 0-3 named vectors, as the
    text and the JSON document that should read alike."""
    n = draw(st.integers(1, 8))
    mode = draw(st.sampled_from([triples.THETA, triples.UPSILON]))
    pool = enumerate_theta(n) if mode == triples.THETA else [
        (i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        for k in range(1, n + 1)]
    picked = draw(st.lists(st.sampled_from(pool), max_size=10, unique=True)) \
        if pool else []
    lam = triples.validate_index_set(picked, n, mode)
    vectors = {name: draw(st.lists(ENTRIES, min_size=len(lam),
                                   max_size=len(lam)))
               for name in draw(st.lists(NAMES, max_size=3, unique=True))}
    head = str(lam)
    if draw(st.booleans()):  # a line break ends a segment as ";" does
        head = head.replace("; ", draw(st.sampled_from([";\n", "\n"])))
    lines = [head] + [f"{name}: " + draw(st.sampled_from([", ", " ", ","]))
                      .join(vals) for name, vals in vectors.items()]
    text = "\n".join(line + draw(st.sampled_from(["", "  # note", "#a: 1"]))
                     for line in lines)
    doc = triples.index_set_document(lam)
    doc["triples"] = draw(st.permutations(doc["triples"]))
    if vectors or draw(st.booleans()):
        doc["vectors"] = vectors
    return lam, vectors, text, json.dumps(doc)


def load_stdin(source):
    with mock.patch("sys.stdin", io.StringIO(source)):
        return cli.load_input("-")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=documents_in_both_formats())
def test_json_and_text_inputs_agree(case):
    lam, vectors, text, doc = case
    assert triples.parse_document(text) == triples.parse_document(doc) == \
        (lam, vectors)
    assert load_stdin(text) == load_stdin(doc)
    assert parse_index_set(str(lam)) == lam


def test_isomorphic_reads_json_and_text_alike():
    lam = parse_index_set(ONE_QUAD_MULT2)
    doc = {"n": lam.n, "triples": [list(t) for t in reversed(lam.triples)],
           "vectors": {"a": [1] * 6, "b": ["1", "2", "1/2", "-1", "1", "1"]}}
    text = (ONE_QUAD_MULT2 + "\na: " + ", ".join(map(str, doc["vectors"]["a"]))
            + "\nb: " + ", ".join(doc["vectors"]["b"]) + "\n")
    assert parse_index_set(json.dumps(doc)) == lam
    assert run_main(["isomorphic", "-"], json.dumps(doc)) == \
        run_main(["isomorphic", "-"], text)


@pytest.mark.parametrize("vectors", ["\na: 1, 1", "", "\nb: 1, 1"],
                         ids=["a only", "no vector", "b only"])
def test_isomorphic_needs_both_vectors(vectors):
    assert run_main(["isomorphic", "-"], FILIFORM4 + vectors) == (
        2, "", "error: isomorphic needs two labelled vectors 'a:' and 'b:'\n")


def test_a_vector_may_be_named_mode():
    lam = parse_index_set(FILIFORM4)
    by_text = load_stdin(FILIFORM4 + "\nmode: 1, -1/2")
    by_json = load_stdin('{"n": 4, "triples": [[1, 2, 3], [1, 3, 4]], '
                         '"vectors": {"mode": [1, "-1/2"]}}')
    assert by_text == by_json == (lam, {"mode": StructureVector(
        lam, (Fraction(1), Fraction(-1, 2)))})
    # a mode written as a vector line is a vector with a bad entry
    rc, out, err = run_main(["analyze", "-"], FILIFORM4 + "\nmode: upsilon")
    assert (rc, out, err) == (2, "",
                              "error: not a rational number: 'upsilon'\n")


VECTORS = "\na: 1, 1, 1, 1, 1, 1\nb: 2, 1, 1, 1, 1, 1"
MULT2_JSON = json.dumps(parse_index_set(ONE_QUAD_MULT2).triples)


@pytest.mark.parametrize("source", [
    pytest.param(ONE_QUAD_MULT2 + VECTORS + "\na: 2, 1, 1, 1, 1, 1",
                 id="vector line"),
    pytest.param(ONE_QUAD_MULT2.replace("n=7;", "n=7; n=8;") + VECTORS,
                 id="n= segment"),
    pytest.param(ONE_QUAD_MULT2.replace("n=7;",
                                        "n=7; mode=upsilon\nmode=theta;")
                 + VECTORS, id="mode= segment"),
    pytest.param('{"n": 7, "n": 8, "triples": %s, "vectors": {"a": [1, 1, 1, '
                 '1, 1, 1], "b": [2, 1, 1, 1, 1, 1]}}' % MULT2_JSON,
                 id="JSON n"),
    pytest.param('{"n": 7, "triples": %s, "vectors": {"a": [1, 1, 1, 1, 1, '
                 '1], "b": [2, 1, 1, 1, 1, 1], "a": [2, 1, 1, 1, 1, 1]}}'
                 % MULT2_JSON, id="JSON vector")])
@pytest.mark.parametrize("command",
                         ["analyze", "isomorphic", "jacobi", "cross-section"])
def test_a_repeated_label_is_refused(command, source):
    rc, out, err = run_main([command, "-"], source)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "given twice" in err


@pytest.mark.parametrize("text, code", [
    ("n=4; mode=bogus; (1,2,9)", 2), ("n=4; mode=bogus; (2,1,3)", 2),
    ("n=4; mode=bogus; (1,2,3) (1,2,3)", 2), ("n=4; mode=bogus; (1,2,3)", 3)])
def test_a_bad_triple_is_an_input_error_whatever_the_mode(text, code):
    rc, out, err = run_main(["analyze", "-"], text)
    assert (rc, out) == (code, "")
    assert err.startswith("error: ")


def test_a_line_break_ends_a_segment():
    two_lines = run_main(["analyze", "-"], "n=4\n(1,2,3) (1,3,4)")
    assert two_lines == run_main(["analyze", "-"], "n=4; (1,2,3) (1,3,4)")
    assert two_lines[0] == 0
    # so a value on the line after its "n=" or "mode=" is refused
    for text in ("n=\n4; (1,2,3)", "n=4; mode=\nupsilon; (1,2,3)"):
        assert run_main(["analyze", "-"], text)[:2] == (2, "")


# ---------------------------------------------------------------------------
# The GF(2) coset transversal is capped before it is enumerated
# ---------------------------------------------------------------------------


def test_transversal_cap_is_checked_before_enumerating(monkeypatch):
    monkeypatch.setattr(linalg, "GF2_TRANSVERSAL_CAP", 3)
    # the first 8 and 9 triples of Theta_5 leave 3 and 4 free coordinates
    three, four = (triples.IndexSet(5, tuple(enumerate_theta(5)[:size]))
                   for size in (8, 9))
    assert len(gf2_coset_transversal(three)) == 8
    with pytest.raises(CapExceededError):
        gf2_coset_transversal(four)


def test_transversal_cap_stops_a_huge_analysis():
    # 30 triples of Theta_7 leave 2^23 cosets, far above the cap
    text = "n=7; " + " ".join(str(t) for t in enumerate_theta(7)[:30])
    rc, out, err = run_main(["analyze", "-"], text)
    assert rc == 3 and out == ""
    assert "2^23" in err
    rc, _, _ = run_main(["cross-section", "-"], text)
    assert rc == 3


def test_a_slice_past_the_transversal_cap_is_still_a_slice():
    # every third triple of Theta_9: 28 triples and 2^19 cosets, one past
    # the cap; the spec holds no transversal, so only the reports refuse
    lam = triples.IndexSet(9, tuple(enumerate_theta(9)[::3]))
    spec = cross_section(lam)
    assert spec.dim == 19 and len(lam) - gf2_rank(lam) == 19
    assert len(delta_domain(spec).inequalities) == 28
    text = "n=9; " + " ".join(map(str, lam.triples))
    for argv in (["analyze", "--cross-section", "-"], ["cross-section", "-"]):
        rc, out, err = run_main(argv, text)
        assert (rc, out) == (3, "") and "2^19" in err


def test_sweep_ceiling_is_checked_before_the_pair_table(monkeypatch):
    def refuse(n):
        raise AssertionError(f"pair table built for n={n}")
    monkeypatch.setattr(sweep, "_pair_cache", refuse)
    rc, out, err = run_main(["sweep", "--n", "40", "--size", "1",
                             "--cap", "40"])
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and str(sweep.MAX_N) in err
    with pytest.raises(CapExceededError):
        next(sweep.sweep_strata(sweep.MAX_N + 1, size=1, cap=10**6))
    sweep._check_caps(sweep.MAX_N, None, 1, sweep.MAX_N)


@pytest.mark.parametrize("argv, code", [
    (["--n", "9", "--size", "1"], 3),
    (["--n", "7"], 3),
    (["--n", "17", "--size", "1", "--cap", "20"], 3),
    (["--n", "0"], 2),
    (["--n", "4", "--workers", "0"], 2),
    (["--n", "4", "--workers", "-3"], 2),
    (["--n", "4", "--size", "-1"], 2),
    (["--n", "4", "--max-size", "-1"], 2),
    # --size and --max-size are alternatives, refused before the caps
    (["--n", "5", "--size", "2", "--max-size", "3"], 2),
    (["--n", "9", "--size", "1", "--max-size", "1"], 2),
])
def test_refused_structured_sweep_writes_nothing(argv, code):
    rc, out, err = run_main(["sweep", *argv, "--format", "structured"])
    assert rc == code and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("filters", [
    {"classification": "bogus"},
    {"obstruction": "bogus"},
    # a label is not a status, nor a status other than "empty" a label
    {"obstruction": "finite-1q2"},
    {"classification": "nontrivial"},
    # the CLI lower-cases --filter; the library takes the exact names
    {"classification": "Finite-1q2"},
])
def test_sweep_strata_refuses_unknown_filters_at_the_call(filters):
    # before the generator exists, as for its other refused arguments
    with pytest.raises(MalformedInputError):
        sweep.sweep_strata(4, **filters)


# ---------------------------------------------------------------------------
# Outside input is bounded: nesting depth of JSON, and n
# ---------------------------------------------------------------------------


DEEP_JSON = '{"n": ' + "[" * 100_000


@pytest.mark.parametrize("command",
                         ["analyze", "jacobi", "isomorphic", "cross-section"])
def test_deeply_nested_json_exits_2(command):
    rc, out, err = run_main([command, "-"], DEEP_JSON)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "nested" in err


def test_parse_index_set_rejects_deeply_nested_json():
    with pytest.raises(MalformedInputError):
        parse_index_set(DEEP_JSON)


# integers past the int-string limit, which json.loads refuses to convert
LONG_JSON = [
    pytest.param('{"n": 1%s, "triples": []}' % ("0" * 5000),
                 id="n=<5001 digits>"),
    pytest.param('{"n": 4, "triples": [[1, 2, %s]]}' % ("9" * 5000),
                 id="triple entry of 5000 digits"),
]


@pytest.mark.parametrize("source", [
    *LONG_JSON,
    pytest.param(ONE_QUAD_MULT2 + "\na: 1e5000, 1, 1, 1, 1, 1"
                 "\nb: 1, 1, 1, 1, 1, 1\n", id="vector entry 1e5000")])
@pytest.mark.parametrize("command",
                         ["analyze", "jacobi", "isomorphic", "cross-section"])
def test_too_long_numbers_exit_2(command, source):
    rc, out, err = run_main([command, "-"], source)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry, named", [
    pytest.param("1" + "0" * 5000, "more than 4300 digits",
                 id="<5001 digits>"),
    pytest.param("1/1" + "0" * 5000, "more than 4300 digits",
                 id="1/<5001 digits>"),
    pytest.param("1." + "0" * 5000, "more than 4300 digits",
                 id="1.<5000 digits>"),
    pytest.param("x" * 5000, "not a rational number", id="<5000 x>"),
])
def test_too_long_literal_gets_a_short_error(entry, named):
    source = (ONE_QUAD_MULT2 + f"\na: {entry}, 1, 1, 1, 1, 1"
              "\nb: 1, 1, 1, 1, 1, 1\n")
    rc, out, err = run_main(["isomorphic", "-"], source)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200 and named in err


@pytest.mark.parametrize("text", LONG_JSON)
def test_parse_index_set_rejects_too_long_json_integers(text):
    with pytest.raises(MalformedInputError, match="too many digits"):
        parse_index_set(text)


@pytest.mark.parametrize("command",
                         ["analyze", "jacobi", "isomorphic", "cross-section"])
def test_input_ceiling_on_n(command):
    top = triples.MAX_INPUT_N
    vectors = "\na: 1\nb: 1\n"
    for n in (top + 1, 10**9):
        for text in (f"n={n}; (1,2,3)",
                     json.dumps({"n": n, "triples": [[1, 2, 3]]})):
            with pytest.raises(CapExceededError):
                parse_index_set(text)
        rc, out, err = run_main([command, "-"], f"n={n}; (1,2,3)" + vectors)
        assert rc == 3 and out == ""
        assert err.startswith("error: ") and str(top) in err
    rc, out, _ = run_main([command, "-"], f"n={top}; (1,2,3)" + vectors)
    assert rc == 0 and out


NO_DIMENSION = ["n=0;", "n=-3;", json.dumps({"n": 0, "triples": []})]


@pytest.mark.parametrize("text", NO_DIMENSION)
@pytest.mark.parametrize("command",
                         ["analyze", "jacobi", "isomorphic", "cross-section"])
def test_dimension_below_one_exits_2(command, text):
    rc, out, err = run_main([command, "-"], text)
    assert (rc, out) == (2, "")
    assert err == "error: dimension must be at least 1\n"


@pytest.mark.parametrize("text", NO_DIMENSION)
def test_parse_index_set_rejects_dimension_below_one(text):
    with pytest.raises(IndexOutOfRangeError, match="at least 1"):
        parse_index_set(text)


def test_index_set_rejects_dimension_below_one():
    for n in (0, -3):
        with pytest.raises(IndexOutOfRangeError, match="at least 1"):
            triples.IndexSet(n, ())


# ---------------------------------------------------------------------------
# One parser per process; --workers alone sets a sweep's worker count
# ---------------------------------------------------------------------------


def test_parser_is_built_once_and_sweeps_take_workers_from_the_flag(
        monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []

    def recording_sweep(*args, **kwargs):
        seen.append(kwargs["workers"])
        return iter(())

    monkeypatch.setattr(cli, "sweep_strata", recording_sweep)
    # the former LIESTRATA_WORKERS variable no longer sets the default
    monkeypatch.setenv("LIESTRATA_WORKERS", "2")
    assert run_main(["sweep", "--n", "4"])[0] == 0
    assert run_main(["sweep", "--n", "4", "--workers", "3"])[0] == 0
    assert seen == [1, 3]


# ---------------------------------------------------------------------------
# The sweep's process pool is no larger than its tasks or the CPUs
# ---------------------------------------------------------------------------

SIZES = (0, 1, 2, 3, 7, 10**6)


@pytest.mark.parametrize("cpus", [None, 1, 2, 3, 64, 10**6])
def test_pool_size_is_clamped(monkeypatch, cpus):
    # a platform without affinity masks: the CPU count is all there is
    monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    for workers in SIZES[1:]:
        for tasks in SIZES:
            size = pool_size(workers, tasks)
            assert size <= min(workers, tasks, cpus or 1)
            if workers <= tasks and workers <= (cpus or 1):
                assert size == workers


@pytest.mark.parametrize("allowed", [{0}, {1, 3}, set(range(5))])
def test_pool_size_counts_the_cpus_this_process_may_use(monkeypatch,
                                                       allowed):
    # an affinity mask (taskset, a container's cpuset) narrower than the
    # machine bounds the pool, not the machine's CPU count
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(sweep.os, "sched_getaffinity",
                        lambda pid: set(allowed), raising=False)
    for workers in SIZES[1:]:
        assert pool_size(workers, 10**6) == min(workers, len(allowed))
    assert pool_size(64, 1) == 1


def test_pool_size_is_one_without_fork(monkeypatch):
    # a platform without os.fork sweeps serially, whatever it asks for
    monkeypatch.delattr(sweep.os, "fork", raising=False)
    monkeypatch.setattr(sweep.os, "sched_getaffinity",
                        lambda pid: set(range(8)), raising=False)
    assert pool_size(8, 10**6) == 1
    assert list(sweep.sweep_strata(5, size=3, workers=8)) == \
        list(sweep.sweep_strata(5, size=3))


@pytest.mark.parametrize("cpus, started", [(2, [2]), (1, [])])
def test_sweep_asks_for_a_clamped_pool(monkeypatch, cpus, started):
    monkeypatch.setattr(sweep.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    sizes = []

    def in_process(work, tasks, workers):
        # stands in for the forked pool: records its size, runs in-process
        sizes.append(workers)
        return starmap(work, tasks)

    monkeypatch.setattr(sweep, "_forked", in_process)
    serial = list(sweep.sweep_strata(5, size=3))
    assert list(sweep.sweep_strata(5, size=3, workers=10**6)) == serial
    assert sizes == started


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


@pytest.mark.parametrize("command",
                         ["analyze", "isomorphic", "jacobi", "cross-section"])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(source=SOURCES)
def test_fuzzed_inputs_keep_the_exit_code_contract(command, source):
    rc, _, err = run_main([command, "-"], source)
    assert rc in (0, 2, 3)
    if rc:
        assert err.startswith("error: ")


STRATA = [FILIFORM4, ONE_QUAD_MULT2, ONE_QUAD_MULT3, MULT2_PLUS_MULT3,
          TWO_QUADS_MULT2]
RATIONAL = st.sampled_from(["1", "2", "1/2", "3/7", " 5 ", "-1", "0", "1/0",
                            "nan", "inf", "x", "", "1e3", "2e-3", "--"]) \
    | st.text(alphabet="0123456789/-. x", max_size=6)


@st.composite
def cross_section_argv(draw):
    """A stratum and cross-section options, each option left out or given;
    the center has one entry per triple, give or take one, mostly valid."""
    text = draw(st.sampled_from(STRATA))
    length = len(parse_index_set(text)) + draw(st.sampled_from([-1, 0, 0, 1]))
    center = [draw(RATIONAL) if draw(st.integers(0, 7)) == 0
              else draw(st.sampled_from(["1", "2", "3/2", "1/3"]))
              for _ in range(length)]
    argv = ["cross-section", "-"]
    for flag, value in (("--center", draw(st.sampled_from([",", " "]))
                         .join(center)),
                        ("--exponent", draw(RATIONAL)), ("--c", draw(RATIONAL))):
        if draw(st.booleans()):
            argv.append(f"{flag}={value}")
    return argv, text


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=cross_section_argv())
def test_fuzzed_cross_section_options_keep_the_exit_code_contract(case):
    argv, text = case
    rc, _, err = run_main(argv, text)
    assert rc in (0, 2, 3)
    if rc:
        assert err.startswith("error: ")


INT_JUNK = st.sampled_from(["", "x", "1.5", "--", "1e3", "0x10", " 3 ", "-"])
FILTER = st.sampled_from(list(cli.OBSTRUCTION_FILTERS)
                         + list(cli.CLASSIFICATION_FILTERS)) \
    | st.sampled_from(["Finite-1Q2", "EMPTY", "", "--", "bogus"])


@st.composite
def sweep_argv(draw):
    """sweep options, each left out, valid or junk; the work stays small:
    n <= 5, or n = 6 with an exact size of at most 2."""
    n = draw(st.integers(-1, 6))
    argv = ["sweep"]
    values = {"--n": draw(st.sampled_from([str(n), str(n), None])
                          | INT_JUNK),
              "--size": draw(st.none() | st.integers(-1, 4).map(str)
                             | INT_JUNK),
              "--max-size": draw(st.none() | st.integers(-1, 12).map(str)
                                 | INT_JUNK),
              "--cap": draw(st.none() | st.integers(-1, 9).map(str)
                            | INT_JUNK),
              "--filter": draw(st.none() | FILTER)}
    if values["--n"] == "6":
        values["--size"] = str(draw(st.integers(-1, 2)))
    for flag, value in values.items():
        if value is not None:
            argv.append(f"{flag}={value}")
    if draw(st.booleans()):
        argv.append("--discard-obstructed")
    argv += ["--format", draw(st.sampled_from(["text", "structured"]))]
    return argv


@settings(max_examples=150, derandomize=True, deadline=None)
@given(argv=sweep_argv())
def test_fuzzed_sweep_options_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an option's value
            rc = exc.code
            assert rc == 2 and ": error: " in err.getvalue()
    assert rc in (0, 2, 3)
    if rc:
        assert "error: " in err.getvalue()
    elif "structured" in argv:
        doc = json.loads(out.getvalue())
        assert doc["counts"]["total"] == len(doc["strata"])
