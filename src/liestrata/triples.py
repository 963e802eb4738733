"""Triples, index sets, structure vectors and sign vectors.

All indices are 1-based in external formats.  Index sets keep their triples
in dictionary order, and every vector or matrix indexed by an index set uses
that order.  Everything here is immutable, so a value derived from one
object alone can be kept on it (see ``memo``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    DuplicateTripleError,
    IndexOutOfRangeError,
    MalformedInputError,
    ModeError,
    OrderViolationError,
)

THETA = "theta"
UPSILON = "upsilon"
# The largest n an input may give.  Root vectors have n entries, so the cost
# grows linearly in n: on a six-triple set the slowest command, analyze
# --cross-section, took 0.004 s and 19 MB peak RSS at n = 16, 0.06 s and
# 21 MB at n = 4096, 0.42 s and 25 MB at n = 16384 and 1.5 s and 36 MB at
# n = 65536 (Python 3.11, 2 vCPUs).
MAX_INPUT_N = 4096


class Triple(NamedTuple):
    i: int
    j: int
    k: int

    def __str__(self) -> str:
        return f"({self.i},{self.j},{self.k})"


def memo(fn):
    """fn(x) computed once per immutable x and kept in x.__dict__, as
    functools.cached_property does; exceptions are not kept. The key is
    dotted, never an attribute name. The value is shared and read-only, and
    must not refer to x, so that x is still freed by its reference count."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoized(x):
        if key not in x.__dict__:
            x.__dict__[key] = fn(x)
        return x.__dict__[key]
    return memoized


def check_triple(t: Triple, n: int, mode: str = THETA) -> None:
    """Raise if t is not a valid triple of the given mode inside [n]."""
    if not (1 <= t.i <= n and 1 <= t.j <= n and 1 <= t.k <= n):
        raise IndexOutOfRangeError(f"{t} has an entry outside [1, {n}]")
    if not t.i < t.j:
        raise OrderViolationError(f"{t} needs i < j")
    if mode == THETA and not t.j < t.k:
        raise OrderViolationError(f"{t} needs i < j < k in theta mode")


def enumerate_theta(n: int) -> list[Triple]:
    """All triples with 1 <= i < j < k <= n in dictionary order."""
    if n < 1:
        raise IndexOutOfRangeError("dimension must be at least 1")
    return [Triple(*c) for c in combinations(range(1, n + 1), 3)]


@dataclass(frozen=True)
class IndexSet:
    """A set of triples marking which structure constants are nonzero."""

    n: int
    triples: tuple[Triple, ...]
    mode: str = THETA

    def __post_init__(self):
        if self.n < 1:
            raise IndexOutOfRangeError("dimension must be at least 1")
        if self.mode not in (THETA, UPSILON):
            raise ModeError(f"unknown mode {self.mode!r}")
        for t in self.triples:
            check_triple(t, self.n, self.mode)
        if list(self.triples) != sorted(set(self.triples)):
            raise OrderViolationError("triples must be strictly ascending")

    def __len__(self) -> int:
        return len(self.triples)

    def require_theta(self, what: str) -> None:
        if self.mode != THETA:
            raise ModeError(f"{what} requires a theta-mode index set")

    def __str__(self) -> str:
        body = " ".join(str(t) for t in self.triples)
        if self.mode == THETA:
            return f"n={self.n}; {body}".rstrip()
        return f"n={self.n}; mode={self.mode}; {body}".rstrip()


def validate_index_set(raw: Iterable[tuple[int, int, int]], n: int,
                       mode: str = THETA) -> IndexSet:
    """Sort raw triples into a valid IndexSet, raising on any violation."""
    if n > MAX_INPUT_N:
        raise CapExceededError(
            f"n={n} exceeds the input ceiling {MAX_INPUT_N}")
    triples = [Triple(*t) for t in raw]
    for t in triples:
        check_triple(t, n, mode)
    triples.sort()
    for a, b in zip(triples, triples[1:]):
        if a == b:
            raise DuplicateTripleError(f"duplicate triple {a}")
    return IndexSet(n, tuple(triples), mode)


def decode_json(text: str):
    """json.loads, with nesting too deep for the decoder and integers longer
    than the interpreter's int-string limit as malformed input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise MalformedInputError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise MalformedInputError("JSON integer has too many digits") \
            from None


def index_set_from_json(doc) -> IndexSet:
    """The IndexSet of a decoded JSON object {"n": .., "mode": ..,
    "triples": [[i,j,k], ...]} with integer n and entries; mode optional."""
    if not isinstance(doc, dict):
        raise MalformedInputError("an index set must be a JSON object")
    n, raw, mode = doc.get("n"), doc.get("triples"), doc.get("mode", THETA)
    if type(n) is not int:
        raise MalformedInputError('"n" must be an integer')
    if not isinstance(mode, str):
        raise MalformedInputError('"mode" must be a string')
    if not isinstance(raw, list) or not all(
            isinstance(t, list) and len(t) == 3
            and all(type(x) is int for x in t) for t in raw):
        raise MalformedInputError(
            '"triples" must be a list of [i, j, k] integer lists')
    return validate_index_set(raw, n, mode)


def parse_index_set(text: str) -> IndexSet:
    """Parse the textual format ``n=7; (1,2,4) (1,3,5) ...``.

    An optional ``mode=theta|upsilon`` segment may appear before the triples.
    JSON documents ``{"n": .., "mode": .., "triples": [[i,j,k], ...]}`` are
    accepted too.
    """
    text = text.strip()
    if text.startswith("{"):
        return index_set_from_json(decode_json(text))
    n = None
    mode = THETA
    triple_src = []
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        if segment.startswith("n="):
            n = _integer(segment[2:], segment)
        elif segment.startswith("mode="):
            mode = segment[5:].strip()
        else:
            triple_src.append(segment)
    if n is None:
        raise MalformedInputError("missing 'n=' segment in index-set text")
    raw = []
    for chunk in " ".join(triple_src).replace(")", ") ").split():
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise MalformedInputError(f"bad triple token {chunk!r}")
        parts = chunk[1:-1].split(",")
        if len(parts) != 3:
            raise MalformedInputError(f"bad triple token {chunk!r}")
        raw.append(tuple(_integer(p, chunk) for p in parts))
    return validate_index_set(raw, n, mode)


def _integer(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedInputError(f"bad integer in {where!r}") from None


def index_set_document(lam: IndexSet) -> dict:
    return {"n": lam.n, "mode": lam.mode,
            "triples": [list(t) for t in lam.triples]}


@dataclass(frozen=True)
class StructureVector:
    """Exact nonzero rational structure constants indexed by an index set."""

    lam: IndexSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.lam):
            raise DimensionMismatchError(
                f"expected {len(self.lam)} values, got {len(self.values)}")
        for t, v in zip(self.lam.triples, self.values):
            if v == 0:
                raise DimensionMismatchError(f"zero structure constant at {t}")

    def __getitem__(self, pos: int) -> Fraction:
        return self.values[pos]

    def serialize(self) -> list[str]:
        return [str(v) for v in self.values]


def structure_vector(lam: IndexSet, values: Iterable) -> StructureVector:
    """Build a StructureVector, coercing entries to exact Fractions."""
    return StructureVector(lam, tuple(Fraction(v) for v in values))


def sign_vector(a: StructureVector) -> tuple[int, ...]:
    """Sign vector over Z2: bit 1 exactly where the entry is negative."""
    return tuple(1 if v < 0 else 0 for v in a.values)
