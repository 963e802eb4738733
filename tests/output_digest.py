"""Digests of the CLI's output, to show that a change leaves it unchanged.

Run ``python3 tests/output_digest.py`` on two checkouts and compare what
they print.  Every call runs ``cli.main`` in-process; its stdout, stderr
and exit code go into the sha256 of its command, and every call goes into
the total.  The inputs are every stratum recorded in
``perfbench/strata.json`` (read, never written) and the index sets of
``tests/conftest.py``, each with a seeded pair of structure vectors
for ``isomorphic``.  Each line of ``SWEEPS`` is run in both formats and
gets a digest of its own.  The last line counts the structured
``analyze --cross-section`` reports whose digest matches the one recorded
in ``strata.json``.

pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import conftest  # noqa: E402
from liestrata import cli  # noqa: E402
from liestrata.triples import parse_index_set  # noqa: E402

STRATA = ROOT / "perfbench" / "strata.json"
FIXTURES = ("FILIFORM4", "HEISENBERG5", "ONE_QUAD_MULT2", "ONE_QUAD_MULT3",
            "MULT2_PLUS_MULT3", "TWO_QUADS_MULT2", "ONE_QUAD_NON_SPANNING",
            "DIM7")
STRUCTURED = ["--format", "structured"]
COMMANDS = {
    "analyze --cross-section": ["analyze", "--cross-section"],
    "analyze --cross-section --format structured":
        ["analyze", "--cross-section", *STRUCTURED],
    "isomorphic": ["isomorphic"],
    "isomorphic --format structured": ["isomorphic", *STRUCTURED],
    "jacobi": ["jacobi"],
    "cross-section --c=-3/2": ["cross-section", "--c=-3/2"],
}
SEED = 7
# sweeps: serial and pooled, the filters, --discard-obstructed, n = 7 with
# classification off and on, n = 1 and 2 (theta is empty), no strata,
# blocks split into tasks (n = 6: size 6 at the second index, size 10 also
# at the third and fourth), perfbench's census-json and census-classify
# sweeps byte for byte (perfbench's check sorts the strata and skips the
# multiplicities), and refused ones (n = 0, n = 7 without a size, n = 17)
SWEEPS = [
    ["--n", "4"],
    ["--n", "5"],
    ["--n", "5", "--workers", "2"],
    ["--n", "5", "--filter", "finite-1q2"],
    ["--n", "5", "--filter", "empty", "--discard-obstructed"],
    ["--n", "5", "--filter", "nontrivial", "--workers", "2"],
    ["--n", "5", "--discard-obstructed"],
    ["--n", "7", "--size", "2"],
    ["--n", "7", "--size", "3", "--filter", "finite-1q2"],
    ["--n", "1"],
    ["--n", "2"],
    ["--n", "4", "--size", "9"],
    ["--n", "6", "--size", "6"],
    ["--n", "6", "--size", "6", "--workers", "2"],
    ["--n", "6", "--size", "10"],
    ["--n", "6", "--size", "10", "--workers", "2"],
    ["--n", "7", "--size", "4", "--workers", "2"],
    ["--n", "7", "--size", "5", "--filter", "finite-1q2"],
    ["--n", "0"],
    ["--n", "7"],
    ["--n", "17", "--size", "1"],
]


def recorded_strata() -> list[dict]:
    with open(STRATA, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [e for group in doc["body"].values() for e in group] + doc["tail"]


def _rational(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    return -value if rng.random() < 0.5 else value


def vector_pair(rng: random.Random, text: str) -> str:
    """Lines a: and b:, b being a moved by a random diagonal matrix and,
    in two pairs of three, then one entry doubled or negated."""
    lam = parse_index_set(text)
    a = [_rational(rng) for _ in lam.triples]
    g = [_rational(rng) for _ in range(lam.n)]
    b = [v * g[t.k - 1] / (g[t.i - 1] * g[t.j - 1])
         for v, t in zip(a, lam.triples)]
    if b:
        change = rng.randrange(3)
        if change:
            b[rng.randrange(len(b))] *= 2 if change == 1 else -1
    return "".join(f"{name}: {', '.join(map(str, vec))}\n"
                   for name, vec in (("a", a), ("b", b)))


def run(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    strata = recorded_strata()
    inputs = [e["index_set"] for e in strata] + \
        [getattr(conftest, name) for name in FIXTURES]
    rng = random.Random(SEED)
    documents = [text + "\n" + vector_pair(rng, text) for text in inputs]
    hashes = {label: hashlib.sha256() for label in COMMANDS}
    total = hashlib.sha256()
    matched = recorded = 0
    for i, doc in enumerate(documents):
        for label, argv in COMMANDS.items():
            rc, out, err = run([*argv, "-"], doc)
            blob = f"{rc}\0{out}\0{err}\0".encode("utf-8")
            hashes[label].update(blob)
            total.update(blob)
            if label.endswith("structured") and argv[0] == "analyze" and \
                    i < len(strata) and strata[i]["digest"] is not None:
                recorded += 1
                digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
                matched += digest[:16] == strata[i]["digest"]
    for label, h in hashes.items():
        print(f"{h.hexdigest()}  {label}")
    print(f"{total.hexdigest()}  total of {len(documents) * len(COMMANDS)} "
          f"calls on {len(documents)} inputs")
    for argv in SWEEPS:
        h = hashlib.sha256()
        for fmt in ("text", "structured"):
            rc, out, err = run(["sweep", *argv, "--format", fmt], "")
            h.update(f"{rc}\0{out}\0{err}\0".encode("utf-8"))
        print(f"{h.hexdigest()}  sweep {' '.join(argv)}, both formats")
    print(f"recorded digests: {matched} of {recorded} match")
    return 0 if matched == recorded else 1


if __name__ == "__main__":
    sys.exit(main())
