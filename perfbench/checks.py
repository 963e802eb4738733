"""Correctness checks on the program's outputs, shared by run.py and record.py."""

from __future__ import annotations

import hashlib
import json

import corpus


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _canonical(triples, obstruction, classification) -> str:
    return " ".join(triples) + f"|{obstruction}|{classification or '-'}"


def census_summary(path: str, fmt: str) -> dict:
    """Counts and a digest of the sorted emitted strata of a sweep output."""
    lines = []
    if fmt == "structured":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for s in doc["strata"]:
            lines.append(_canonical([f"({i},{j},{k})" for i, j, k in s["triples"]],
                                    s["obstruction"], s["classification"]))
        counts = doc["counts"]
    else:
        counts = {"total": None, "obstruction": {}, "classification": {}}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("size="):
                    head, _, cls = line.rpartition(" classification=")
                    head, _, obs = head.rpartition(" obstruction=")
                    triples = head.split(" ")[1:]
                    lines.append(_canonical(triples, obs,
                                            None if cls == "-" else cls))
                elif line.startswith("# total: "):
                    counts["total"] = int(line[len("# total: "):])
                elif line.startswith("# "):
                    kind, _, rest = line[2:].partition(" ")
                    key, _, value = rest.rpartition(": ")
                    counts[kind][key] = int(value)
    lines.sort()
    blob = "\n".join(lines)
    return {"emitted": len(lines), "counts": counts,
            "strata_digest": digest(blob)}


def check_census(summary: dict, expected: dict) -> list[str]:
    problems = []
    for key in ("emitted", "counts", "strata_digest"):
        if summary[key] != expected[key]:
            problems.append(f"{key}: got {summary[key]!r}, "
                            f"recorded {expected[key]!r}")
    if summary["counts"]["total"] != summary["emitted"]:
        problems.append("count trailer disagrees with the emitted strata")
    return problems


def check_stratum(item: dict, result: dict) -> tuple[list[str], int]:
    """Problems with one completed stratum, and the Lie points verified.

    The structured analysis must match its recorded digest (when the stratum
    finished at record time), the text form must parse back to the same
    document, every Lie point must pass the brute-force Jacobiator and the
    isomorphism verdict must match how the vector pair was built.
    """
    from liestrata.jacobi import brute_force_jacobiator
    from liestrata.report import parse_text
    from liestrata.triples import parse_index_set, structure_vector

    sid = item["id"]
    calls = result["calls"]
    rcs = [c["rc"] for c in calls]
    if rcs != [0, 0, 0]:
        return [f"{sid}: exit codes {rcs}"], 0
    text, structured, iso = (c["out"] for c in calls)
    problems = []
    doc = json.loads(structured)
    if item["digest"] is not None and digest(structured) != item["digest"]:
        problems.append(f"{sid}: report digest differs from the record")
    if parse_text(text) != doc:
        problems.append(f"{sid}: text and structured reports differ")
    if len(doc["kernel_basis"]) != item["kernel_dim"]:
        problems.append(f"{sid}: kernel dimension {len(doc['kernel_basis'])}"
                        f" != recorded {item['kernel_dim']}")
    lam = parse_index_set(item["index_set"])
    points = doc.get("cross_section", {}).get("lie_points", [])
    for point in points:
        if not brute_force_jacobiator(lam, structure_vector(lam, point)):
            problems.append(f"{sid}: Lie point {point} fails the Jacobiator")
    verdict = json.loads(iso)["verdict"]
    want = corpus.expected_verdict(item, doc["kernel_basis"])
    if verdict != want:
        problems.append(f"{sid}: isomorphic said {verdict!r}, built {want!r}")
    return problems, len(points)
