import hashlib
import json
import os
import signal
import string
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import liestrata
from liestrata import parse_index_set
from liestrata.cli import load_input, main
from liestrata.report import (build_analysis_report,
                              build_cross_section_report,
                              build_isomorphism_report, parse_text,
                              render_text)
from liestrata.cross_sections import cross_section
from liestrata.triples import structure_vector

from conftest import (DIM7, FILIFORM4, MULT2_PLUS_MULT3, ONE_QUAD_MULT2,
                      ONE_QUAD_MULT3, ONE_QUAD_NON_SPANNING, TWO_QUADS_MULT2)
from output_digest import recorded_strata, run

PACKAGE_ROOT = os.path.dirname(os.path.dirname(liestrata.__file__))


def child_env():
    # the child imports the same package as the tests, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def run_cli(args, stdin="", timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "liestrata", *args],
        input=stdin, capture_output=True, text=True, env=child_env(),
        timeout=timeout)
    return proc


@pytest.fixture
def mult2_file(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text(ONE_QUAD_MULT2 + "\n")
    return str(path)


def test_analysis_report_contents(one_quad_mult2):
    doc = build_analysis_report(one_quad_mult2)
    assert doc["kernel_basis"] == [[1, -1, 0, 0, -1, 1]]
    assert doc["gf2_rank"] == 5
    assert len(doc["transversal"]) == 2
    assert doc["obstruction"] == "nontrivial"
    assert doc["classification"] == "finite-1q2"
    assert doc["jacobi_system"] == [
        "(1,2,3,7): -a[1,2,4]*a[3,4,7] + a[1,3,5]*a[2,5,7] = 0"]
    quads = doc["quadruples"]
    assert len(quads) == 1 and quads[0]["multiplicity"] == 2
    for quad in quads:
        assert len(quad["pairs"]) == quad["multiplicity"]


def test_analysis_report_consistency_all_fixtures():
    for text in (FILIFORM4, ONE_QUAD_MULT2, ONE_QUAD_MULT3,
                 MULT2_PLUS_MULT3, TWO_QUADS_MULT2, ONE_QUAD_NON_SPANNING):
        lam = parse_index_set(text)
        doc = build_analysis_report(lam)
        assert doc["rank"] + len(doc["kernel_basis"]) == len(lam)
        assert len(doc["transversal"]) == 2 ** (len(lam) - doc["gf2_rank"])
        assert len(doc["jacobi_system"]) == len(doc["quadruples"])


def test_text_roundtrip_analysis(mult2_plus_mult3):
    doc = build_analysis_report(mult2_plus_mult3)
    assert parse_text(render_text(doc)) == doc


def test_text_roundtrip_cross_section(one_quad_mult3):
    spec = cross_section(one_quad_mult3, a0=[1, 2, 1, 1, 1, 2, 1])
    doc = build_cross_section_report(spec)
    assert parse_text(render_text(doc)) == doc


def test_text_roundtrip_isomorphism(filiform4):
    a = structure_vector(filiform4, [1, 1])
    b = structure_vector(filiform4, ["-7/3", 22])
    doc = build_isomorphism_report(a, b)
    assert doc["verdict"] == "equivalent"
    assert doc["caveat"] == "assumes-D-orbit-classes"
    assert parse_text(render_text(doc)) == doc


KEYS = st.text(alphabet=string.ascii_letters + string.digits + "_",
               min_size=1, max_size=8)
# strings that look like the text form's own syntax, and any text
SCALARS = st.none() | st.booleans() | st.integers() | st.sampled_from(
    ["", "-", "- x", "a: b", ":", "x:", "two\nlines", " -1", "{}", "[]"]) | \
    st.text(max_size=10)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4), max_leaves=20)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(doc=st.dictionaries(KEYS, VALUES, max_size=6))
@example(doc={})
@example(doc={"empty": {}, "none": [], "flat": [1, "- a", None, True],
              "nested": [[1, [2]], {}, [], {"a": {"b": []}}, "x:\ny"],
              "last": {}})
def test_text_roundtrip_of_any_document(doc):
    assert parse_text(render_text(doc)) == doc


@pytest.mark.parametrize("text", [
    "a:\n  b: 1\n c: 2",       # a line out of its block's indent
    "a:\n  b: 1\n    c: 2",
    "  a: 1",
    "a: 1\nb",                 # a bare key
    "a:\n  -\n    x",
    "a: [1,",                  # a scalar that is not JSON
    "a: 1\n- 2",               # a list item among keys
])
def test_parse_text_refuses_text_render_text_never_writes(text):
    with pytest.raises(ValueError):
        parse_text(text)


def test_isomorphism_report_runs_each_orbit_test_once(monkeypatch,
                                                       one_quad_mult2):
    from liestrata import orbits, report
    calls = {}
    for name in ("magnitude_orbit_equivalent", "sign_orbit_equivalent"):
        def counted(a, b, _name=name, _run=getattr(orbits, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _run(a, b)
        monkeypatch.setattr(orbits, name, counted)
        monkeypatch.setattr(report, name, counted)
    a = structure_vector(one_quad_mult2, [1] * 6)
    b = structure_vector(one_quad_mult2, [1, 1, 1, 1, 1, -1])
    doc = build_isomorphism_report(a, b)
    assert calls == {"magnitude_orbit_equivalent": 1,
                     "sign_orbit_equivalent": 1}
    assert (doc["magnitude_equivalent"], doc["sign_equivalent"],
            doc["verdict"]) == (True, False, "distinct (sign)")


def test_analysis_with_cross_section_section(one_quad_mult2):
    doc = build_analysis_report(one_quad_mult2, with_cross_section=True)
    sub = doc["cross_section"]
    assert sub["lie_points"] == [["1"] * 6]
    assert parse_text(render_text(doc)) == doc


@pytest.mark.parametrize("text", [
    "n=4; mode=upsilon; (1,2,3) (1,3,2) (2,3,4) (1,4,1)", ONE_QUAD_MULT3])
def test_analyze_cross_section_is_the_cross_section_report(text):
    # the section appended by analyze is the cross-section command's report
    # less its header, in either mode
    rc, out, err = run(["analyze", "--cross-section", "-",
                        "--format", "structured"], text)
    assert (rc, err) == (0, "")
    section = json.loads(out)["cross_section"]
    rc, out, err = run(["cross-section", "-", "--format", "structured"], text)
    assert (rc, err) == (0, "")
    alone = json.loads(out)
    for key in ("schema", "n", "mode", "triples"):
        alone.pop(key)
    assert section == alone
    assert "certificate" in section


def test_load_input_with_vectors(tmp_path):
    path = tmp_path / "iso.txt"
    path.write_text(FILIFORM4 + "\na: 1, 1\nb: -7/3, 22\n")
    lam, vectors = load_input(str(path))
    assert len(lam) == 2
    assert set(vectors) == {"a", "b"}


def test_load_input_json(tmp_path):
    doc = {"n": 4, "mode": "theta", "triples": [[1, 2, 3], [1, 3, 4]],
           "vectors": {"a": ["1", "1"]}}
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(doc))
    lam, vectors = load_input(str(path))
    assert lam.n == 4 and "a" in vectors


def test_cli_analyze_text(mult2_file):
    proc = run_cli(["analyze", mult2_file])
    assert proc.returncode == 0
    assert '"finite-1q2"' in proc.stdout
    assert "kernel_basis" in proc.stdout


def test_cli_analyze_structured_matches_text(mult2_file):
    structured = run_cli(["analyze", mult2_file, "--format", "structured"])
    text = run_cli(["analyze", mult2_file])
    assert structured.returncode == 0 and text.returncode == 0
    assert json.loads(structured.stdout) == parse_text(text.stdout)


def test_cli_analyze_stdin():
    proc = run_cli(["analyze", "-"], stdin=FILIFORM4 + "\n")
    assert proc.returncode == 0
    assert '"automatic"' in proc.stdout
    assert '"unobstructed"' in proc.stdout


def test_cli_exit_code_on_bad_input(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=4; (2,1,3)\n")
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_cli_exit_code_on_bad_center(mult2_file):
    proc = run_cli(["cross-section", mult2_file, "--center",
                    "1,1,0,1,1,1"])
    assert proc.returncode == 3


def test_cli_huge_center_refuses_root_search_without_hanging(mult2_file):
    # the branch equation's constant term is 10^30 - 1, whose divisors trial
    # division would take 10^15 steps to find; the cap refuses it, and the
    # report records the unsupported shape as it does every other one.
    proc = run_cli(["cross-section", mult2_file, "--format", "structured",
                    "--center", "1," + str(10**30) + ",1,1,1,1"],
                   timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert "branches" not in doc
    assert "too large for the rational root search" in doc["branches_error"]


ZERO_DENOMINATOR = {
    "exponent": (["cross-section", "--exponent", "1/0"], FILIFORM4),
    "center": (["cross-section", "--center", "1,1/0"], FILIFORM4),
    "scale": (["cross-section", "--c", "1/0"], FILIFORM4),
    "vector-line": (["isomorphic"], FILIFORM4 + "\na: 1, 1/0\nb: 1, 1"),
    "json-vector": (["isomorphic"], json.dumps(
        {"n": 4, "triples": [[1, 2, 3], [1, 3, 4]],
         "vectors": {"a": ["1", "1/0"], "b": ["1", "1"]}})),
}


@pytest.mark.parametrize("where", sorted(ZERO_DENOMINATOR))
def test_cli_zero_denominator_is_input_error(tmp_path, capsys, where):
    (command, *options), body = ZERO_DENOMINATOR[where]
    path = tmp_path / "in.txt"
    path.write_text(body + "\n")
    assert main([command, str(path), *options]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_exit_code_on_upsilon_jacobi(tmp_path):
    path = tmp_path / "ups.txt"
    path.write_text("n=3; mode=upsilon; (1,2,1)\n")
    proc = run_cli(["jacobi", str(path)])
    assert proc.returncode == 3


def test_cli_sweep_cap(tmp_path):
    proc = run_cli(["sweep", "--n", "9"])
    assert proc.returncode == 3
    proc = run_cli(["sweep", "--n", "7"])  # 2^35 strata
    assert proc.returncode == 3


def test_cli_isomorphic(tmp_path):
    path = tmp_path / "iso.txt"
    path.write_text(FILIFORM4 + "\na: 1, 1\nb: -7/3, 22\n")
    proc = run_cli(["isomorphic", str(path)])
    assert proc.returncode == 0
    assert '"equivalent"' in proc.stdout
    assert "assumes-D-orbit-classes" in proc.stdout
    path.write_text(ONE_QUAD_MULT2 +
                    "\na: 1, 1, 1, 1, 1, 1\nb: 1, 1, 1, 1, 1, -1\n")
    proc = run_cli(["isomorphic", str(path)])
    assert '"distinct (sign)"' in proc.stdout


def test_cli_isomorphic_missing_vector(tmp_path):
    path = tmp_path / "iso.txt"
    path.write_text(FILIFORM4 + "\na: 1, 1\n")
    proc = run_cli(["isomorphic", str(path)])
    assert proc.returncode == 2


def test_cli_jacobi(mult2_file):
    proc = run_cli(["jacobi", mult2_file])
    assert proc.returncode == 0
    assert "-a[1,2,4]*a[3,4,7] + a[1,3,5]*a[2,5,7] = 0" in proc.stdout


def test_cli_sweep_n4_deterministic():
    first = run_cli(["sweep", "--n", "4"])
    second = run_cli(["sweep", "--n", "4"])
    assert first.returncode == 0
    assert first.stdout == second.stdout
    body = [l for l in first.stdout.splitlines() if not l.startswith("#")]
    assert len(body) == 16
    assert "# total: 16" in first.stdout


def test_cli_sweep_filters():
    empty_only = run_cli(["sweep", "--n", "5", "--filter", "empty"])
    assert empty_only.returncode == 0
    for line in empty_only.stdout.splitlines():
        if line.startswith("size="):
            assert "obstruction=empty" in line
    discard = run_cli(["sweep", "--n", "5", "--discard-obstructed"])
    assert "obstruction=empty" not in discard.stdout
    bad = run_cli(["sweep", "--n", "4", "--filter", "bogus"])
    assert bad.returncode == 2


def test_cli_sweep_structured():
    proc = run_cli(["sweep", "--n", "4", "--format", "structured"])
    doc = json.loads(proc.stdout)
    assert doc["counts"]["total"] == 16
    assert len(doc["strata"]) == 16
    assert doc["counts"]["obstruction"] == {"automatic": 16}


def test_cli_cross_section_fixture(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text(ONE_QUAD_MULT3 + "\n")
    proc = run_cli(["cross-section", str(path), "--center",
                    "1,2,1,1,1,2,1"])
    assert proc.returncode == 0
    doc = parse_text(proc.stdout)
    assert set(doc["domain"]) == {"2 + s > 0", "1 + t > 0", "1 - s - t > 0"}
    statuses = {tuple(b["sign"]): b["status"] for b in doc["branches"]}
    assert statuses[(0, 0, 0, 0, 0, 1, 0)] == "inconsistent"
    assert sum(1 for s in statuses.values() if s == "curve") == 3


def test_cli_cross_section_exponent_display(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text(ONE_QUAD_MULT2 + "\n")
    proc = run_cli(["cross-section", str(path), "--exponent", "1/2"])
    assert proc.returncode == 0
    doc = parse_text(proc.stdout)
    assert doc["exponent"] == "1/2"
    assert doc["lie_points"] == [["(1)^1/2"] * 6]


def test_cli_cross_section_scale_constant(mult2_file):
    proc = run_cli(["cross-section", mult2_file, "--c", "1/2"])
    doc = parse_text(proc.stdout)
    assert doc["c"] == "1/2"
    assert doc["jacobian_at_center"] == [["2"]]


def test_cross_section_report_three_parameters():
    # three kernel directions exceed the branch-solving scale; the report
    # says so instead of failing
    lam = parse_index_set(MULT2_PLUS_MULT3)
    spec = cross_section(lam, a0=[1, 1, 1, 1, 1, 2, 2, 1, 1])
    doc = build_cross_section_report(spec)
    assert "branches_error" in doc
    assert parse_text(render_text(doc)) == doc


@pytest.mark.parametrize("command", [["cross-section"],
                                     ["analyze", "--cross-section"]])
def test_cli_dim7_cross_section_is_fast(tmp_path, capsys, command):
    path = tmp_path / "set.txt"
    path.write_text(DIM7 + "\n")
    start = time.perf_counter()
    assert main([*command, str(path), "--format", "structured"]) == 0
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    section = doc.get("cross_section", doc)
    assert len(section["directions"]) == 7
    assert len(section["domain"]) == 13
    assert elapsed < 2.0  # about 0.07 s; Fourier-Motzkin ran past 60 s


def test_cli_isomorphic_wrong_length_vector(tmp_path):
    path = tmp_path / "iso.txt"
    path.write_text(FILIFORM4 + "\na: 1, 1\nb: 1, 1, 1\n")
    proc = run_cli(["isomorphic", str(path)])
    assert proc.returncode == 2


def test_sweep_workers_parallel_matches_serial():
    from liestrata.sweep import sweep_strata
    serial = list(sweep_strata(5, max_size=4))
    parallel = list(sweep_strata(5, max_size=4, workers=2))
    assert serial == parallel


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_into_a_reader_that_closes_early(workers):
    # as in `liestrata sweep --n 6 --max-size 6 | head -2`: the reader takes
    # two lines and goes away with megabytes of the sweep still unwritten
    proc = subprocess.Popen(
        [sys.executable, "-m", "liestrata", "sweep", "--n", "6",
         "--max-size", "6", "--workers", workers],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
    assert head[0].startswith(b"size=0 (empty) ")
    assert head[1].startswith(b"size=1 (1,2,3) ")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_interrupted_exits_quietly(workers):
    # Ctrl-C reaches the terminal's whole process group: the sweep and, when
    # pooled, its workers
    proc = subprocess.Popen(
        [sys.executable, "-m", "liestrata", "sweep", "--n", "6",
         "--workers", workers],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        start_new_session=True)
    try:
        assert len(proc.stdout.read(1 << 16)) == 1 << 16  # mid-sweep
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert err == b""
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_sweep_size_filter_contains_known_stratum():
    from liestrata.sweep import sweep_strata
    target = parse_index_set(ONE_QUAD_MULT2).triples
    assert any(s.triples == target
               for s in sweep_strata(7, size=6, filter="finite-1q2"))


def test_cli_analyze_non_spanning(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text(ONE_QUAD_NON_SPANNING + "\n")
    proc = run_cli(["analyze", str(path)])
    assert "null_space_spanning: false" in proc.stdout
    assert '"unclassified"' in proc.stdout


def test_cli_analyze_empty_set():
    proc = run_cli(["analyze", "-"], stdin="n=4;\n")
    assert proc.returncode == 0
    doc = parse_text(proc.stdout)
    assert doc["triples"] == [] and doc["classification"] == "unobstructed"
    assert doc["transversal"] == [[]]


def test_cli_analyze_upsilon_mode():
    proc = run_cli(["analyze", "-"], stdin="n=3; mode=upsilon; (1,2,1)\n")
    assert proc.returncode == 0
    doc = parse_text(proc.stdout)
    assert doc["mode"] == "upsilon"
    assert "quadruples" not in doc


# Domain inequalities, branch curves and Jacobi equations of the fixtures'
# cross sections, at the default center and at two others, as the report
# writes them; each list is in the report's order.
TEXTS = [
    (ONE_QUAD_MULT2, None,
     ["1 + s > 0", "1 - s > 0"],
     [],
     ["(1,2,3,7): -a[1,2,4]*a[3,4,7] + a[1,3,5]*a[2,5,7] = 0"]),
    (ONE_QUAD_MULT3, None,
     ["1 + t > 0", "1 + s > 0", "1 - s - t > 0"],
     ["s = (1 + 2*t^2)/(4 - 2*t)", "s = (-1 - 4*t)/(4 - 2*t)",
      "t = (1 + 2*s^2)/(4 - 2*s)"],
     ["(1,2,3,7): -a[1,2,4]*a[3,4,7] + a[1,3,5]*a[2,5,7] "
      "- a[1,6,7]*a[2,3,6] = 0"]),
    (MULT2_PLUS_MULT3, None,
     ["1 + u > 0", "1 + s + t + u > 0", "1 + t > 0", "1 - s - t - u > 0",
      "1 - t - u > 0", "1 + s > 0"],
     [],
     ["(1,2,3,6): a[1,3,4]*a[2,4,6] - a[1,5,6]*a[2,3,5] = 0",
      "(1,2,4,7): a[1,2,3]*a[3,4,7] + a[1,4,5]*a[2,5,7] "
      "- a[1,6,7]*a[2,4,6] = 0"]),
    (TWO_QUADS_MULT2, None,
     ["1 + s + t > 0", "1 + t > 0", "1 - s - t > 0", "1 - t > 0",
      "1 + s > 0"],
     [],
     ["(1,2,3,7): a[1,3,4]*a[2,4,7] - a[1,6,7]*a[2,3,6] = 0",
      "(1,2,4,8): a[1,4,6]*a[2,6,8] - a[1,7,8]*a[2,4,7] = 0"]),
    (ONE_QUAD_NON_SPANNING, None,
     ["1 + t > 0", "1 + s + t > 0", "1 - t > 0", "1 - s - t > 0",
      "1 - s > 0", "1 + s > 0"],
     ["s = (-2*t)/(4)", "s = (-2*t)/(4)"],
     ["(1,2,4,8): a[1,4,6]*a[2,6,8] - a[1,7,8]*a[2,4,7] = 0"]),
    (DIM7, None,
     ["1 - 2*t1 - 2*t3 - t5 - 2*t6 - 3*t7 > 0",
      "1 + 3*t1 - t2 + 2*t3 + 2*t5 + 3*t6 + 4*t7 > 0",
      "1 - t1 + t2 + t4 > 0", "1 - 2*t1 + t2 - t3 - t5 - 2*t6 - 2*t7 > 0",
      "1 + t1 - t2 + t3 - t4 + t6 + t7 > 0", "1 + t1 > 0",
      "1 - t2 - t3 - t4 - t5 - t6 - t7 > 0", "1 + t2 > 0", "1 + t3 > 0",
      "1 + t4 > 0", "1 + t5 > 0", "1 + t6 > 0", "1 + t7 > 0"],
     [],
     ["(1,2,3,5): -a[1,2,4]*a[3,4,5] + a[1,3,4]*a[2,4,5] = 0",
      "(1,2,3,6): -a[1,2,4]*a[3,4,6] = 0",
      "(1,2,4,5): a[1,2,3]*a[3,4,5] = 0",
      "(1,2,4,6): a[1,2,3]*a[3,4,6] + a[1,4,5]*a[2,5,6] "
      "- a[1,5,6]*a[2,4,5] = 0",
      "(1,2,5,6): a[1,2,3]*a[3,5,6] + a[1,2,4]*a[4,5,6] = 0",
      "(1,3,4,6): a[1,4,5]*a[3,5,6] - a[1,5,6]*a[3,4,5] = 0",
      "(1,3,5,6): a[1,3,4]*a[4,5,6] = 0",
      "(2,3,4,6): a[2,4,5]*a[3,5,6] - a[2,5,6]*a[3,4,5] = 0"]),
    (ONE_QUAD_MULT3, ["3/2", 1, "1/3", 2, 1, 1, "5/2"],
     ["3/2 + t > 0", "1 + s > 0", "1 - s - t > 0"],
     ["s = (19/4 + t + 2*t^2)/(5 - 2*t)", "s = (-11/4 - 7*t)/(5 - 2*t)",
      "t = (-3/4 - s + 2*s^2)/(7 - 2*s)"],
     ["(1,2,3,7): -a[1,2,4]*a[3,4,7] + a[1,3,5]*a[2,5,7] "
      "- a[1,6,7]*a[2,3,6] = 0"]),
    (ONE_QUAD_NON_SPANNING, ["3/2", 1, "1/3", 2, 1, 1, "5/2", 1, 1],
     ["1/3 + s + t > 0", "1 - s - t > 0", "1 - t > 0", "1 + s > 0",
      "1 + t > 0"],
     ["s = (13/6 - 7/2*t)/(29/6)", "s = (13/6 - 7/2*t)/(29/6)"],
     ["(1,2,4,8): a[1,4,6]*a[2,6,8] - a[1,7,8]*a[2,4,7] = 0"]),
]


@pytest.mark.parametrize("text,center,domain,curves,equations", TEXTS)
def test_domain_curve_and_equation_texts(text, center, domain, curves,
                                         equations):
    lam = parse_index_set(text)
    a0 = None if center is None else [Fraction(x) for x in center]
    doc = build_cross_section_report(cross_section(lam, a0=a0))
    assert doc["domain"] == domain
    assert [b["curve"] for b in doc.get("branches", ())
            if "curve" in b] == curves
    assert doc["jacobi_system"] == equations


def test_recorded_reports_match_their_digests():
    """Every stratum of perfbench/strata.json (read, never written) with a
    recorded digest: its structured ``analyze --cross-section`` report
    still has that digest, and its text report parses back to the same
    document."""
    strata = [e for e in recorded_strata() if e["digest"] is not None]
    assert len(strata) == 514
    for entry in strata:
        stdin = entry["index_set"] + "\n"
        rc, structured, _ = run(["analyze", "--cross-section", "--format",
                                 "structured", "-"], stdin)
        assert rc == 0
        digest = hashlib.sha256(structured.encode("utf-8")).hexdigest()
        assert digest[:16] == entry["digest"], entry["index_set"]
        rc, text, _ = run(["analyze", "--cross-section", "-"], stdin)
        assert rc == 0
        assert parse_text(text) == json.loads(structured), \
            entry["index_set"]
