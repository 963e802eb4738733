"""Tiny exact polynomial arithmetic for branch solving.

A multivariate polynomial is a plain dict that maps exponent tuples (one
entry per variable) to its nonzero Fraction coefficients; the empty dict is
the zero polynomial.  The branch solver only ever needs total degree two in
at most two variables, so nothing here tries to be clever.  Univariate
polynomials travel as ascending coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .errors import UnsupportedShapeError
from .linalg import primitive

# Largest |leading| and |constant| coefficient, after scaling to primitive
# integers, that rational_roots accepts.  Its candidates are p/q for every
# divisor p of the constant and q of the leading coefficient, found by trial
# division up to the square root, so the work grows with both; at this cap
# it stays under a second (at most 240 divisors each), while every
# polynomial the branch solver meets on ordinary inputs has coefficients in
# the single digits.
ROOT_COEFF_CAP = 10 ** 6

Poly = dict[tuple[int, ...], Fraction]


def degree_in(poly: Poly, v: int) -> int:
    return max((e[v] for e in poly), default=0)


def univariate_in(poly: Poly, v: int) -> list[list[Fraction]]:
    """Coefficient lists in the remaining variable, indexed by power of v.

    Only valid for at most two variables; with one variable the inner lists
    are constants.
    """
    nvars = len(next(iter(poly), ()))
    if nvars > 2:
        raise UnsupportedShapeError("more than two parameters")
    other = 1 - v if nvars == 2 else None
    out: list[list[Fraction]] = [[] for _ in range(degree_in(poly, v) + 1)]
    for e, c in poly.items():
        oe = e[other] if other is not None else 0
        bucket = out[e[v]]
        while len(bucket) <= oe:
            bucket.append(Fraction(0))
        bucket[oe] += c
    return [trim(b) for b in out]


def evaluate(poly: Poly, point: Sequence) -> Fraction:
    vals = [Fraction(x) for x in point]
    total = Fraction(0)
    for e, c in poly.items():
        for x, k in zip(vals, e):
            c *= x ** k
        total += c
    return total


def format_sum(terms: Iterable[tuple[Fraction | int, str]]) -> str:
    """``coefficient*name`` summed over terms, as text like ``-s + 3/2*t^2``.

    Zero terms, and a coefficient of 1 or -1 before a name, are left out;
    an empty name marks a constant.  No terms give ``0``.
    """
    parts = []
    for c, name in terms:
        if not c:
            continue
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        c = abs(c)
        parts.append(f"{c}*{name}" if name and c != 1 else name or str(c))
    return "".join(parts) or "0"


# ---------------------------------------------------------------------------
# Univariate helpers on ascending coefficient lists
# ---------------------------------------------------------------------------


def trim(coeffs: list[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def eval_univar(coeffs: Sequence[Fraction], x) -> Fraction:
    total = Fraction(0)
    xv = Fraction(x)
    for c in reversed(list(coeffs)):
        total = total * xv + c
    return total


def mul_univar(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def add_univar(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def _square_root_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero univariate polynomial, exactly.

    Raises UnsupportedShapeError when real irrational roots may remain,
    so callers never silently drop solutions, and when the leading or the
    (nonzero) constant coefficient exceeds ROOT_COEFF_CAP in absolute value
    once the coefficients are primitive integers.
    """
    c = trim(list(coeffs))
    if not c:
        raise ValueError("zero polynomial has every root")
    if len(c) == 1:
        return []
    ints = primitive(c)
    roots: list[Fraction] = []
    # peel off roots at zero
    while ints[0] == 0:
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
        ints = ints[1:]
    if max(abs(ints[0]), abs(ints[-1])) > ROOT_COEFF_CAP:
        raise UnsupportedShapeError(
            "coefficients too large for the rational root search "
            f"(above {ROOT_COEFF_CAP} in absolute value)")
    work = [Fraction(x) for x in ints]
    for cand in _root_candidates(ints):
        while len(work) > 1 and eval_univar(work, cand) == 0:
            if cand not in roots:
                roots.append(cand)
            work = _deflate(work, cand)
    _check_no_real_roots_left(work)
    return sorted(roots)


def _root_candidates(ints: list[int]) -> list[Fraction]:
    lead, const = abs(ints[-1]), abs(ints[0])
    if const == 0:
        return []
    ps = _divisors(const)
    qs = _divisors(lead)
    cands = {Fraction(sp * p, q) for p in ps for q in qs for sp in (1, -1)}
    return sorted(cands)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Divide by (x - root) via synthetic division; exact since root is a root."""
    n = len(coeffs) - 1
    quotient = [Fraction(0)] * n
    acc = coeffs[n]
    quotient[n - 1] = acc
    for i in range(n - 1, 0, -1):
        acc = coeffs[i] + root * acc
        quotient[i - 1] = acc
    assert coeffs[0] + root * acc == 0
    return trim(quotient)


def _check_no_real_roots_left(work: list[Fraction]) -> None:
    """After deflating rational roots, ensure no real roots are missed."""
    deg = len(work) - 1
    if deg <= 0:
        return
    if deg == 1:
        raise AssertionError("a linear factor always has a rational root")
    if deg == 2:
        a, b, c = work[2], work[1], work[0]
        disc = b * b - 4 * a * c
        if disc < 0:
            return
        if _square_root_exact(disc.numerator * disc.denominator) is None:
            raise UnsupportedShapeError(
                "irrational real roots beyond fixture scale")
        # square discriminant would have produced rational roots already
        raise AssertionError("rational quadratic roots escaped extraction")
    raise UnsupportedShapeError(
        f"residual degree {deg} factor beyond fixture scale")
