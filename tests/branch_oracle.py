"""One-parameter branch solving by brute force: the slow oracle for
cross_sections.solve_branch_fixtures on slices a0 + t*w.

With the sign mask applied, every structure constant of the slice point is
affine in t, so every coordinate of every Jacobiator is a polynomial in t
of degree at most 2.  It is read off the brute-force bracket
(jacobi._Bracket) at three values of t and interpolated.  Its rational
roots come from a search over the rational root theorem's candidates, and
a branch's points are the roots common to every nonzero coordinate at
which every magnitude is positive.  Nothing here reads quadruples, aligned
pairs or their signs.

Standard library only, apart from the bracket and StructureVector.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from liestrata.jacobi import _Bracket
from liestrata.triples import IndexSet, StructureVector


def _jacobiators(lam: IndexSet, sign, mags) -> dict:
    """Every nonzero Jacobiator coordinate of the signed point, keyed by
    (i, j, k, coordinate)."""
    point = StructureVector(lam, tuple(-v if s else v
                                       for v, s in zip(mags, sign)))
    bracket = _Bracket(point)
    return {(i, j, k, m): v
            for i, j, k in combinations(range(1, lam.n + 1), 3)
            for m, v in bracket.jacobiator(i, j, k).items()}


def _interpolate(ts, ys) -> list[Fraction]:
    """Coefficients [c0, c1, c2] of the polynomial of degree at most 2
    through the three points (ts[i], ys[i])."""
    coeffs = [Fraction(0)] * 3
    for i in range(3):
        a, b = (ts[j] for j in range(3) if j != i)
        scale = Fraction(ys[i], (ts[i] - a) * (ts[i] - b))
        for e, c in enumerate((a * b, -(a + b), 1)):
            coeffs[e] += scale * c
    return coeffs


def jacobiator_polynomials(lam: IndexSet, a0, w, sign) -> list[list]:
    """The nonzero Jacobiator coordinates on the signed slice, each as
    coefficients [c0, c1, c2] in t."""
    # at integer t, the magnitudes times the center's common denominator
    # are integers; a Jacobiator is quadratic, so that scales it by the
    # square and leaves its roots
    den = lcm(*(Fraction(a).denominator for a in a0))
    ts, samples, t = [], [], 0
    while len(ts) < 3:
        mags = [int(a * den) + t * x * den for a, x in zip(a0, w)]
        if 0 not in mags:  # a structure vector has no zero entry
            ts.append(t)
            samples.append(_jacobiators(lam, sign, mags))
        t += 1
    keys = sorted(set().union(*samples))
    polys = [_interpolate(ts, [s.get(key, 0) for s in samples])
             for key in keys]
    return [c for c in polys if any(c)]


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _value(coeffs, t):
    return sum(c * t ** e for e, c in enumerate(coeffs))


def rational_roots(coeffs) -> set[Fraction]:
    """The rational roots of a nonzero polynomial: 0 if it divides out,
    then each candidate p/q, p dividing the constant and q the leading
    coefficient, that evaluates to 0."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    while not ints[-1]:
        ints.pop()
    roots = set()
    while not ints[0]:
        roots.add(Fraction(0))
        ints = ints[1:]
    for p in _divisors(abs(ints[0])) if len(ints) > 1 else ():
        for q in _divisors(abs(ints[-1])):
            for r in (Fraction(p, q), Fraction(-p, q)):
                if _value(ints, r) == 0:
                    roots.add(r)
    return roots


def common_roots(lam: IndexSet, a0, w, sign) -> set[Fraction] | None:
    """The rational t at which every Jacobiator of the signed slice point
    vanishes, or None when they vanish for every t."""
    polys = jacobiator_polynomials(lam, a0, w, sign)
    if not polys:
        return None
    first, *rest = polys
    return {t for t in rational_roots(first)
            if all(_value(c, t) == 0 for c in rest)}


def admissible(a0, w, roots: set[Fraction] | None) -> tuple[str, tuple]:
    """(status, points) of a branch with these common roots, as
    solve_branch_fixtures reports them: "full-domain", the points inside
    the positive slice in increasing order, or "inconsistent" when there
    are none."""
    if roots is None:
        return "full-domain", ()
    points = tuple((t,) for t in sorted(roots)
                   if all(a + t * x > 0 for a, x in zip(a0, w)))
    return ("points", points) if points else ("inconsistent", ())
