"""Re-record the reference outputs the benchmark checks against.

  python3 perfbench/record.py strata          # strata.json
  python3 perfbench/record.py census          # expected.json

``strata.json`` holds the candidate strata of the stratum-analysis corpus
with their kernel dimension and the digest of their structured analysis
report; ``expected.json`` holds the counts and strata digest of each census
workload.  Run it from the repository root, only for a change that is meant
to alter the program's outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import random
import sys

import checks
import corpus
import run

POOL_SEED = 20261017
TAIL_SEED = 2026
# three candidates per body stratum, for the stratified draw in corpus.build
BODY_POOL = {d: 3 * corpus.SHARE[d] for d in corpus.BODY_DIMS}
TAIL_QUOTA = {d: corpus.SHARE[d] for d in corpus.TAIL_DIMS}
PINNED = ("n=6; (1,2,3) (1,2,4) (1,2,6) (1,3,4) (1,4,5) (1,5,6) (2,3,6) "
          "(2,4,5) (2,5,6) (3,4,5) (3,4,6) (3,5,6) (4,5,6)")
RECORD_DEADLINE_S = 30.0


def _draw(seed: int, quota: dict[int, int]) -> dict[int, list]:
    """Uniform n in 6-8 and size in 3-12; keep the first strata per dimension."""
    from liestrata.linalg import rank, root_matrix
    from liestrata.triples import IndexSet, enumerate_theta

    rng = random.Random(seed)
    got: dict[int, list] = {d: [] for d in quota}
    seen = set()
    while any(len(got[d]) < quota[d] for d in quota):
        n = rng.choice((6, 7, 8))
        size = rng.randint(3, 12)
        lam = IndexSet(n, tuple(sorted(rng.sample(enumerate_theta(n), size))))
        dim = size - rank(root_matrix(lam))
        if dim in quota and len(got[dim]) < quota[dim] and str(lam) not in seen:
            seen.add(str(lam))
            got[dim].append(lam)
    return got


def _analyze(index_sets: list[str]) -> list[dict]:
    items = [{"id": f"r{i:04d}", "index_set": s}
             for i, s in enumerate(index_sets)]
    paths = corpus.write_inputs(items, os.path.join(run.WORK, "record"))
    jobs = [{"id": it["id"], "calls": [["analyze", "--cross-section",
                                        "--format", "structured",
                                        paths[it["id"]]]]}
            for it in items]
    results = run.corpus_pass(jobs, RECORD_DEADLINE_S, "record",
                              limit_s=24 * 3600)["meta"]
    out = []
    for s, res in zip(index_sets, results["strata"]):
        n, triples = corpus.parse(s)
        call = res["calls"][0]
        if res["status"] == "ok" and call["rc"] != 0:
            sys.exit(f"analyze failed on {s} with exit code {call['rc']}")
        doc = json.loads(call["out"]) if res["status"] == "ok" else None
        out.append({
            "index_set": s, "n": n, "size": len(triples),
            "digest": None if doc is None else checks.digest(call["out"]),
            "recorded_s": round(call["seconds"], 4),
        })
    return out


def record_strata() -> None:
    body = _draw(POOL_SEED, BODY_POOL)
    tail = _draw(TAIL_SEED, TAIL_QUOTA)
    body_sets = [str(lam) for d in corpus.BODY_DIMS for lam in body[d]]
    tail_sets = [str(lam) for d in sorted(tail) for lam in tail[d]] + [PINNED]
    entries = _analyze(body_sets + tail_sets)
    dims = {s: d for d, group in {**body, **tail}.items()
            for s in map(str, group)}
    dims[PINNED] = 7
    for e in entries:
        e["kernel_dim"] = dims[e["index_set"]]
    doc = {
        "body": {str(d): [e for e in entries[:len(body_sets)]
                          if e["kernel_dim"] == d] for d in corpus.BODY_DIMS},
        "tail": entries[len(body_sets):],
    }
    lines = ["{", '"record_deadline_s": %s,' % RECORD_DEADLINE_S, '"body": {']
    for i, d in enumerate(corpus.BODY_DIMS):
        rows = ",\n".join(json.dumps(e) for e in doc["body"][str(d)])
        end = "," if i < len(corpus.BODY_DIMS) - 1 else ""
        lines.append(f'"{d}": [\n{rows}\n]{end}')
    lines.append("},")
    lines.append('"tail": [\n' + ",\n".join(json.dumps(e) for e in doc["tail"])
                 + "\n]")
    lines.append("}")
    with open(os.path.join(run.BENCH, "strata.json"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def record_census() -> None:
    expected = {}
    for name, spec in run.CENSUS.items():
        res = run.census_invocation(name, spec["argv"], trace=False)
        if res["rc"] != 0:
            sys.exit(f"{name}: exit code {res['rc']}")
        summary = checks.census_summary(res["out"], spec["format"])
        expected[name] = {"census_size": run.census_size(spec["argv"]),
                          **summary}
        print(name, expected[name], flush=True)
    path = os.path.join(run.BENCH, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    run.require_program()
    sys.path.insert(0, run.SRC)
    if sys.argv[1:2] == ["strata"]:
        record_strata()
    elif sys.argv[1:2] == ["census"]:
        record_census()
    else:
        sys.exit(__doc__)
