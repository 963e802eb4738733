"""Report documents and their two serializations.

Every command builds one self-describing dict (the structured output,
emitted as JSON) and renders the same dict to an indented text form whose
scalars are JSON literals: ``key: value`` lines for a dict, ``- value``
lines for a list, and a bare ``key:`` or ``-`` before a nested dict or
non-flat list, whose lines sit two spaces deeper.  render_text and
parse_text are one recursive walk each; parse_text inverts render_text
exactly, so both formats always carry identical data, and raises
ValueError on text that render_text never writes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from . import cross_sections as cs
from .errors import UnsupportedShapeError
from .jacobi import format_system, obstruction_status
from .linalg import (gf2_coset_transversal, gf2_rank, gf2_root_matrix,
                     kernel_basis, root_matrix)
from .orbits import (ISOMORPHISM_CAVEAT, VERDICTS,
                     magnitude_orbit_equivalent, sign_orbit_equivalent)
from .quadruples import classify, lambda_subspace, null_space_spanning, \
    quadruple_table
from .triples import IndexSet, StructureVector, index_set_document

ANALYSIS_SCHEMA = "stratum-report/1"
ISOMORPHISM_SCHEMA = "isomorphism-report/1"
CROSS_SECTION_SCHEMA = "cross-section-report/1"
SWEEP_SCHEMA = "sweep-report/1"


def fractions_as_strings(values: Sequence[Fraction]) -> list[str]:
    return [str(v) for v in values]


def build_analysis_report(lam: IndexSet,
                          with_cross_section: bool = False) -> dict:
    kernel = kernel_basis(lam)
    doc: dict = {
        "schema": ANALYSIS_SCHEMA,
        **index_set_document(lam),
        "root_matrix": [list(r) for r in root_matrix(lam)],
        "gf2_root_matrix": [list(r) for r in gf2_root_matrix(lam)],
        "rank": len(lam) - len(kernel),
        "gf2_rank": gf2_rank(lam),
        "kernel_basis": [list(w) for w in kernel],
        "transversal": [list(t) for t in gf2_coset_transversal(lam)],
    }
    if lam.mode == "theta":
        doc["quadruples"] = [
            {"quadruple": list(q),
             "multiplicity": len(pairs),
             "pairs": [{"positions": [ap.p + 1, ap.r + 1],
                        "sign": ap.sign,
                        "triples": [list(lam.triples[ap.p]),
                                    list(lam.triples[ap.r])]}
                       for ap in pairs]}
            for q, pairs in quadruple_table(lam).items()]
        doc["lambda_subspace"] = [list(w) for w in lambda_subspace(lam)]
        doc["null_space_spanning"] = null_space_spanning(lam)
        doc["obstruction"] = obstruction_status(lam)
        doc["classification"] = classify(lam)
        doc["jacobi_system"] = format_system(lam)
    if with_cross_section:
        sub = build_cross_section_report(cs.cross_section(lam))
        for key in ("schema", "n", "mode", "triples"):
            sub.pop(key)
        doc["cross_section"] = sub
    return doc


def build_isomorphism_report(a: StructureVector, b: StructureVector) -> dict:
    mag = magnitude_orbit_equivalent(a, b)
    sgn = sign_orbit_equivalent(a, b)
    return {
        "schema": ISOMORPHISM_SCHEMA,
        **index_set_document(a.lam),
        "a": a.serialize(),
        "b": b.serialize(),
        "magnitude_equivalent": mag,
        "sign_equivalent": sgn,
        "verdict": VERDICTS[mag, sgn],
        "caveat": ISOMORPHISM_CAVEAT,
    }


def build_cross_section_report(spec: cs.CrossSectionSpec,
                               c=Fraction(1)) -> dict:
    lam = spec.lam
    doc: dict = {
        "schema": CROSS_SECTION_SCHEMA,
        **index_set_document(lam),
        "center": fractions_as_strings(spec.a0),
        "exponent": str(spec.p),
        "c": str(Fraction(c)),
        "directions": [list(w) for w in spec.W],
        "transversal": [list(t) for t in gf2_coset_transversal(lam)],
    }
    domain = cs.delta_domain(spec)
    doc["domain"] = [q.render() for q in domain.inequalities]
    if spec.dim:
        zero = [Fraction(0)] * spec.dim
        jac = cs.f_jacobian(spec, zero, c)
        doc["jacobian_at_center"] = [fractions_as_strings(row) for row in jac]
        doc["dominant_at_center"] = cs.dominance_certificate(spec, zero)
    cert = cs.lemma58_certificate(spec)
    doc["certificate"] = {"certified": cert.certified, "reason": cert.reason}
    if lam.mode != "theta":
        return doc
    doc["jacobi_system"] = format_system(lam)
    try:
        branches = cs.solve_branch_fixtures(spec)
    except UnsupportedShapeError as exc:
        doc["branches_error"] = str(exc)
        return doc
    rendered = []
    points: list[list[str]] = []
    for branch in branches:
        entry: dict = {"sign": list(branch.sign), "status": branch.status}
        if branch.note:
            entry["note"] = branch.note
        if branch.status == cs.POINTS:
            entry["points"] = [fractions_as_strings(pt)
                               for pt in branch.points]
        if branch.curve is not None:
            entry["curve"] = branch.curve.render()
            entry["samples"] = [
                [cs.display_value(v, spec.p) for v in vec.values]
                for _, vec in cs.curve_samples(spec, branch)
            ]
        rendered.append(entry)
    doc["branches"] = rendered
    for vec in cs.lie_points(spec, branches):
        points.append([cs.display_value(v, spec.p) for v in vec.values])
    doc["lie_points"] = points
    return doc


# ---------------------------------------------------------------------------
# Text serialization: indented blocks with JSON scalars
# ---------------------------------------------------------------------------


def _is_flat(value) -> bool:
    return isinstance(value, list) and \
        all(map(isinstance, value, repeat((int, str, type(None)))))


def render_text(doc: dict) -> str:
    """The text form of a report document."""
    lines: list[str] = []
    _render(doc, "", lines)
    return "\n".join(lines) + "\n"


def _render(block, pad: str, lines: list[str]) -> None:
    """Append the lines of a dict or a list at indent ``pad``."""
    is_dict = isinstance(block, dict)
    head, inner = pad + "-", pad + "  "
    append = lines.append
    for value in block:  # a list's members, a dict's keys
        if is_dict:
            head, value = f"{pad}{value}:", block[value]
        if isinstance(value, dict) or isinstance(value, list) and \
                not _is_flat(value):
            append(head)
            _render(value, inner, lines)
        else:
            append(f"{head} {_literal(value)}")


def _literal(value) -> str:
    """json.dumps(value) for a scalar or a flat list; for an int or a list
    of ints (a bool is none) repr gives the same bytes without an encoder."""
    if type(value) is int or type(value) is list and \
            all(type(x) is int for x in value):
        return repr(value)
    return json.dumps(value)


def parse_text(text: str) -> dict:
    """The document render_text wrote as ``text``.  A key without a value,
    a line out of place (off its block's indent, or an item among keys) or
    a scalar that is not JSON raises ValueError."""
    rows = [(len(line) - len(line.lstrip()), line.strip())
            for line in text.splitlines() if line.strip()]
    if not rows:
        return {}
    value, end = _parse(rows, 0, 0)
    if end < len(rows):
        raise ValueError(f"unexpected line {rows[end][1]!r}")
    return value


def _parse(rows, i: int, indent: int):
    """The dict or list whose lines start at rows[i], at ``indent``, and
    the index of the first row after it."""
    is_list = rows[i][1].startswith("-")
    out: dict | list = [] if is_list else {}
    while i < len(rows) and rows[i][0] == indent and \
            rows[i][1].startswith("-") == is_list:
        line = rows[i][1]
        i += 1
        if is_list:
            body = line[1:].strip()
        else:
            key, colon, body = line.partition(":")
            if not colon:
                raise ValueError(f"line {line!r} has no value")
            body = body.strip()
        if body:
            value = json.loads(body)
        elif i < len(rows) and rows[i][0] > indent:
            value, i = _parse(rows, i, indent + 2)
        else:
            value = {}
        if is_list:
            out.append(value)
        else:
            out[key] = value
    return out, i
