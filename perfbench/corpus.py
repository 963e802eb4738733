"""Seeded corpus for the stratum-analysis workload.

The candidate strata and their recorded report digests live in
``strata.json`` (written by ``record.py``).  A corpus has two parts:

* the body: the strata of kernel dimension 0-3, drawn by the seed from
  that dimension's recorded pool, stratified by recorded analysis time.
  These take milliseconds each and give the median.
* the tail: every recorded stratum of kernel dimension 4-7, in every
  corpus.  Their analysis time spans four decades (the Fourier-Motzkin
  step of ``delta_domain``), so drawing them per seed would make the tail
  metrics depend on the seed more than on the code.  The tail holds the
  first strata of each dimension from one fixed draw, never picked by
  speed, plus the 13-triple dimension-7 stratum from the ROADMAP.

Each dimension gets the share that a uniform draw (n in 6-8, 3-12 triples)
gives it, so dimensions 4-6 are a fifth of the corpus and
``stratum_p90_ms`` falls among them.

Each stratum also gets a seeded pair of structure vectors for
``isomorphic``: ``b`` is ``a`` moved by a random diagonal matrix, so the
pair is D-equivalent, and in a third of the pairs one entry of ``b`` is
then doubled, which breaks magnitude equivalence exactly when that
position lies in the support of the left kernel.
"""

from __future__ import annotations

import json
import os
import random
import re
from fractions import Fraction

# Strata per kernel dimension in a corpus of 200: the share of each
# dimension in 20 000 draws with uniform n in 6-8 and size in 3-12
# (44.1 / 14.1 / 11.3 / 10.6 / 9.8 / 6.9 / 3.2 %), plus the pinned
# dimension-7 stratum, which takes one place from dimension 0.
SHARE = {0: 87, 1: 28, 2: 23, 3: 21, 4: 20, 5: 14, 6: 6}
BODY_DIMS = (0, 1, 2, 3)
TAIL_DIMS = (4, 5, 6)
TRIPLE = re.compile(r"\((\d+),(\d+),(\d+)\)")


def load_strata(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse(index_set: str) -> tuple[int, list[tuple[int, int, int]]]:
    head, _, body = index_set.partition(";")
    return int(head.strip()[2:]), [tuple(map(int, t))
                                   for t in TRIPLE.findall(body)]


def _rational(rng: random.Random, top: int, den: int) -> Fraction:
    value = Fraction(rng.randint(1, top), rng.randint(1, den))
    return -value if rng.random() < 0.5 else value


def _vector_pair(rng: random.Random, index_set: str):
    n, triples = parse(index_set)
    a = [_rational(rng, 9, 5) for _ in triples]
    g = [_rational(rng, 5, 3) for _ in range(n)]
    b = [v * g[k - 1] / (g[i - 1] * g[j - 1])
         for v, (i, j, k) in zip(a, triples)]
    doubled = None
    if rng.random() < 1 / 3:
        doubled = rng.randrange(len(b))
        b[doubled] *= 2
    return a, b, doubled


def build(strata: dict, seed: int) -> list[dict]:
    """The corpus for one seed, in a seeded order; same seed, same corpus."""
    rng = random.Random(seed)
    chosen = []
    for d in BODY_DIMS:
        # one stratum from each run of equally fast recorded strata, so every
        # seed gets the same spread of analysis times
        pool = sorted(strata["body"][str(d)], key=lambda e: e["recorded_s"])
        step = len(pool) // SHARE[d]
        chosen.extend(rng.choice(pool[i * step:(i + 1) * step])
                      for i in range(SHARE[d]))
    chosen.extend(strata["tail"])
    rng.shuffle(chosen)
    corpus = []
    for idx, entry in enumerate(chosen):
        a, b, doubled = _vector_pair(rng, entry["index_set"])
        corpus.append({**entry, "id": f"s{idx:03d}", "a": a, "b": b,
                       "doubled": doubled})
    return corpus


def write_inputs(corpus: list[dict], directory: str) -> dict[str, str]:
    """One input file per stratum (index set plus vectors a: and b:)."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for item in corpus:
        path = os.path.join(directory, item["id"] + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(item["index_set"] + "\n")
            for name in ("a", "b"):
                if name in item:
                    fh.write(f"{name}: " + ", ".join(map(str, item[name]))
                             + "\n")
        paths[item["id"]] = path
    return paths


def expected_verdict(item: dict, kernel_basis: list[list[int]]) -> str:
    pos = item["doubled"]
    if pos is not None and any(w[pos] for w in kernel_basis):
        return "distinct (magnitude)"
    return "equivalent"
