"""Per-stratum values are computed once per object and leave it unchanged.

The root matrix's kernel, its GF(2) column reduction and coset transversal
and the quadruple table of an index set, and the positivity domain of a
cross section, are each kept on the object they were computed from
(``triples.memo``).
"""

import gc
import pickle
import sys
import weakref
from contextlib import contextmanager

import pytest

from liestrata import (ModeError, cross_section, parse_index_set,
                       quadruple_table, sign_orbit_equivalent,
                       structure_vector)
from liestrata import cross_sections, linalg, quadruples
from liestrata.report import (build_analysis_report,
                              build_cross_section_report, render_text)

from conftest import ONE_QUAD_MULT3


def count_calls(monkeypatch, module, name):
    """Wrap module.name at every liestrata binding; return the callers'
    function names, one per call."""
    original = getattr(module, name)
    callers = []

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "liestrata" or modname.startswith("liestrata."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return callers


@contextmanager
def body_runs(*memoized):
    """Count the runs of the bodies of memoized functions, which memo hits
    never reach; yields a list that gets one code object per run."""
    bodies = {fn.__wrapped__.__code__ for fn in memoized}
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in bodies:
            runs.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(previous)


def test_one_analysis_derives_each_stratum_object_once(monkeypatch):
    kernels = count_calls(monkeypatch, linalg, "left_null_basis")
    pairs = count_calls(monkeypatch, quadruples, "_pair_info")
    domains = count_calls(monkeypatch, cross_sections, "PolytopeDomain")
    lam = parse_index_set(ONE_QUAD_MULT3)
    with body_runs(linalg.gf2_coset_transversal) as transversals:
        doc = build_analysis_report(lam, with_cross_section=True)
    assert doc["cross_section"]["certificate"]["certified"]
    assert len(kernels) == 1
    assert len(transversals) == 1
    assert pairs.count("quadruple_table") == 21  # C(7, 2) pairs, one build
    assert domains == ["delta_domain"]


def test_one_gf2_column_reduction_per_index_set():
    lam = parse_index_set(ONE_QUAD_MULT3)
    a = structure_vector(lam, [1] * len(lam))
    b = structure_vector(lam, [-1] + [1] * (len(lam) - 1))
    c = structure_vector(lam, [1] * (len(lam) - 1) + [-1])
    with body_runs(linalg.gf2_column_space) as reductions:
        build_analysis_report(lam, with_cross_section=True)
        sign_orbit_equivalent(a, b)
        sign_orbit_equivalent(a, c)
    assert reductions == [linalg.gf2_column_space.__wrapped__.__code__]


def test_memo_leaves_equality_hash_repr_and_pickling_alone():
    lam = parse_index_set(ONE_QUAD_MULT3)
    spec = cross_section(lam)
    build_analysis_report(lam, with_cross_section=True)
    build_cross_section_report(spec)
    # the reports left their values on lam and spec
    assert {"liestrata.linalg.kernel_basis",
            "liestrata.linalg.gf2_coset_transversal",
            "liestrata.quadruples.quadruple_table"} <= vars(lam).keys()
    assert "liestrata.cross_sections.delta_domain" in vars(spec)
    fresh = parse_index_set(ONE_QUAD_MULT3)
    fresh_spec = cross_section(fresh)
    for used, new in ((lam, fresh), (spec, fresh_spec)):
        assert used == new and hash(used) == hash(new)
        assert repr(used) == repr(new)
        again = pickle.loads(pickle.dumps(used))
        assert again == used and hash(again) == hash(used)
    assert render_text(build_analysis_report(lam, True)) == \
        render_text(build_analysis_report(fresh, True))


def test_memo_does_not_keep_exceptions():
    lam = parse_index_set("n=3; mode=upsilon; (1,2,1)")
    for _ in range(2):
        with pytest.raises(ModeError):
            quadruple_table(lam)



def test_memo_leaves_no_reference_cycle():
    # with the cycle collector off, a set or spec is freed only if nothing
    # kept on it refers back to it
    lam = parse_index_set(ONE_QUAD_MULT3)
    spec = cross_section(lam)
    build_analysis_report(lam, with_cross_section=True)
    build_cross_section_report(spec)
    quadruples.classify(lam)
    refs = weakref.ref(lam), weakref.ref(spec)
    gc.disable()
    try:
        del lam, spec
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
