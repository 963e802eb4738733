"""Report documents and their two serializations.

Every command builds one self-describing dict (the structured output,
emitted as JSON) and renders the same dict to an indented text form whose
scalars are JSON literals.  parse_text inverts render_text exactly, so both
formats always carry identical data.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from . import cross_sections as cs
from .errors import UnsupportedShapeError, WNotQuadrupleDerivedError
from .jacobi import format_system, jacobi_system, obstruction_status
from .linalg import (gf2_rank, gf2_root_matrix, kernel_basis, root_matrix,
                     transversal)
from .orbits import (ISOMORPHISM_CAVEAT, magnitude_orbit_equivalent,
                     orbit_verdict, sign_orbit_equivalent)
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
    yhat = gf2_root_matrix(lam)
    kernel = kernel_basis(lam)
    doc: dict = {
        "schema": ANALYSIS_SCHEMA,
        **index_set_document(lam),
        "root_matrix": [list(r) for r in root_matrix(lam)],
        "gf2_root_matrix": [list(r) for r in yhat.dense()],
        "rank": len(lam) - len(kernel),
        "gf2_rank": gf2_rank(yhat),
        "kernel_basis": [list(w) for w in kernel],
        "transversal": [list(t) for t in transversal(lam)],
    }
    if lam.mode == "theta":
        table = quadruple_table(lam)
        quads = []
        for q in table.quadruples:
            pairs = []
            for ap in table.pairs[q]:
                pairs.append({
                    "positions": [ap.p + 1, ap.r + 1],
                    "sign": ap.sign,
                    "triples": [list(lam.triples[ap.p]),
                                list(lam.triples[ap.r])],
                })
            quads.append({"quadruple": list(q),
                          "multiplicity": table.multiplicity(q),
                          "pairs": pairs})
        doc["quadruples"] = quads
        doc["lambda_subspace"] = [list(w) for w in lambda_subspace(lam)]
        doc["null_space_spanning"] = null_space_spanning(lam)
        doc["obstruction"] = obstruction_status(lam)
        doc["classification"] = classify(lam)
        doc["jacobi_system"] = format_system(jacobi_system(lam))
        if with_cross_section:
            sub = build_cross_section_report(cs.cross_section(lam))
            sub.pop("schema")
            for key in ("n", "mode", "triples"):
                sub.pop(key)
            doc["cross_section"] = sub
    return doc


def build_isomorphism_report(a: StructureVector, b: StructureVector) -> dict:
    return {
        "schema": ISOMORPHISM_SCHEMA,
        **index_set_document(a.lam),
        "a": a.serialize(),
        "b": b.serialize(),
        "magnitude_equivalent": magnitude_orbit_equivalent(a, b),
        "sign_equivalent": sign_orbit_equivalent(a, b),
        "verdict": orbit_verdict(a, b),
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
        "transversal": [list(t) for t in spec.T],
    }
    domain = cs.delta_domain(spec)
    doc["domain"] = [q.render() for q in domain.inequalities]
    if spec.dim:
        zero = [Fraction(0)] * spec.dim
        jac = cs.f_jacobian(spec, zero, c)
        doc["jacobian_at_center"] = [fractions_as_strings(row) for row in jac]
        doc["dominant_at_center"] = cs.dominance_certificate(spec, zero)
    try:
        cert = cs.lemma58_certificate(spec)
        doc["certificate"] = {"certified": cert.certified,
                              "reason": cert.reason}
    except WNotQuadrupleDerivedError as exc:
        doc["certificate"] = {"certified": False, "reason": str(exc)}
    if lam.mode != "theta":
        return doc
    sys = jacobi_system(lam)
    doc["jacobi_system"] = format_system(sys)
    try:
        branches = cs.solve_branch_fixtures(spec, sys)
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
        all(isinstance(x, (int, str, bool)) or x is None for x in value)


def render_text(doc: dict) -> str:
    lines: list[str] = []
    _render_dict(doc, 0, lines)
    return "\n".join(lines) + "\n"


def _render_dict(d: dict, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    for key, value in d.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _render_dict(value, indent + 1, lines)
        elif isinstance(value, list) and not _is_flat(value):
            lines.append(f"{pad}{key}:")
            _render_list(value, indent + 1, lines)
        else:
            lines.append(f"{pad}{key}: {json.dumps(value)}")


def _render_list(items: list, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    for item in items:
        if isinstance(item, dict):
            lines.append(f"{pad}-")
            _render_dict(item, indent + 1, lines)
        elif isinstance(item, list) and not _is_flat(item):
            lines.append(f"{pad}-")
            _render_list(item, indent + 1, lines)
        else:
            lines.append(f"{pad}- {json.dumps(item)}")


def parse_text(text: str) -> dict:
    rows = [(len(line) - len(line.lstrip()), line.strip())
            for line in text.splitlines() if line.strip()]
    value, rest = _parse_block(rows, 0)
    assert not rest, "trailing lines after document"
    return value


def _parse_block(rows, indent):
    if not rows:
        return {}, rows
    is_list = rows[0][1].startswith("-")
    return (_parse_list if is_list else _parse_dict)(rows, indent)


def _parse_dict(rows, indent):
    out = {}
    while rows and rows[0][0] == indent and not rows[0][1].startswith("-"):
        _, line = rows[0]
        rows = rows[1:]
        key, _, remainder = line.partition(":")
        remainder = remainder.strip()
        if remainder:
            out[key] = json.loads(remainder)
        elif rows and rows[0][0] > indent:
            out[key], rows = _parse_block(rows, indent + 2)
        else:
            out[key] = {}
    return out, rows


def _parse_list(rows, indent):
    out = []
    while rows and rows[0][0] == indent and rows[0][1].startswith("-"):
        _, line = rows[0]
        rows = rows[1:]
        body = line[1:].strip()
        if body:
            out.append(json.loads(body))
        elif rows and rows[0][0] > indent:
            value, rows = _parse_block(rows, indent + 2)
            out.append(value)
        else:
            out.append({})
    return out, rows
