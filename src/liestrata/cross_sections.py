"""Cross sections of strata: positivity domains, parametrized slices,
the projection map with its exact Jacobian, injectivity certificates, and
fixture-scale solving of the Jacobi system on each sign branch.

A cross-section spec holds only what defines the slice: the index set Λ, a
strictly positive rational center a0, integer directions W in the left null
space of the root matrix Y, and a display exponent p (default 1), which
changes only how magnitudes are rendered: all solving is on the affine
slice.  Λ fixes the sign branches and the Jacobi system.

The slice is injective on D-orbits for every Λ.  If points a != b of one
sign branch lay in one D-orbit, log|a| - log|b| would lie in the column
space of Y (diag(c) scales the entry of (i, j, k) by c_k / (c_i c_j)) and
|a| - |b| in span(W), orthogonal to it; so sum_t (log|a_t| - log|b_t|)
(|a_t| - |b_t|) = 0, whose terms are >= 0 and vanish only where
|a_t| = |b_t|.  When W spans the left null space, Birch's theorem adds that
each positive D-orbit meets the positive slice once (Craciun, Dickenstein,
Shiu and Sturmfels, J. Symbolic Comput. 44 (2009)).  Equivalently,
f_jacobian's W diag(1/a) W^T is positive definite; lemma58_certificate and
dominance_certificate are narrower sufficient conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Sequence

from .errors import (DimensionMismatchError, ModeError, NotAlignedError,
                     OutsideDomainError, UnsupportedShapeError)
from .jacobi import is_lie, jacobi_system
from .linalg import (IntVector, _pivot, gf2_coset_transversal, kernel_basis,
                     primitive, rank, root_matrix, span_equals, transpose)
from .poly import (Poly, add_univar, degree_in, eval_univar, evaluate,
                   format_sum, mul_univar, rational_roots, univariate_in)
from .quadruples import AlignedPair, quadruple_of
from .triples import IndexSet, StructureVector, memo


@dataclass(frozen=True)
class CrossSectionSpec:
    """Index set, center point, kernel directions and display exponent."""

    lam: IndexSet
    a0: tuple[Fraction, ...]
    W: tuple[IntVector, ...]
    p: Fraction = Fraction(1)

    @property
    def dim(self) -> int:
        return len(self.W)


def cross_section(lam: IndexSet, a0: Sequence | None = None,
                  p=Fraction(1), W: Sequence[IntVector] | None = None
                  ) -> CrossSectionSpec:
    """Build a validated spec; defaults give the canonical cross section."""
    m = len(lam)
    if a0 is None:
        center = tuple(Fraction(1) for _ in range(m))
    else:
        center = tuple(Fraction(x) for x in a0)
    if len(center) != m:
        raise DimensionMismatchError(f"center point needs {m} entries")
    if any(x <= 0 for x in center):
        raise OutsideDomainError("center point must be strictly positive")
    if W is None:
        dirs = kernel_basis(lam)
    else:
        yt = transpose(root_matrix(lam))
        given = [tuple(w) for w in W]
        dirs = tuple(tuple(int(x) for x in w) for w in given)
        for w, exact in zip(dirs, given):
            if w != exact:
                raise DimensionMismatchError(
                    "direction entries must be integers")
            if len(w) != m:
                raise DimensionMismatchError("direction length mismatch")
            if any(sum(row[k] * w[k] for k in range(m)) != 0 for row in yt):
                raise DimensionMismatchError("direction not in Null(Y^T)")
        if rank(dirs) < len(dirs):
            raise DimensionMismatchError("directions must be independent")
    p = Fraction(p)
    if p == 0:
        raise OutsideDomainError("exponent must be nonzero")
    return CrossSectionSpec(lam, center, dirs, p)


# ---------------------------------------------------------------------------
# Positivity domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearInequality:
    """const + coeffs . params > 0."""

    const: Fraction
    coeffs: tuple[int, ...]
    positions: tuple[int, ...] = ()

    def evaluate(self, params: Sequence) -> Fraction:
        total = Fraction(self.const)
        for c, t in zip(self.coeffs, params):
            total += c * Fraction(t)
        return total

    def render(self) -> str:
        names = "stu" if len(self.coeffs) <= 3 else \
            [f"t{i+1}" for i in range(len(self.coeffs))]
        return format_sum([(self.const, ""), *zip(self.coeffs, names)]) + \
            " > 0"


@dataclass(frozen=True)
class PolytopeDomain:
    inequalities: tuple[LinearInequality, ...]

    def contains(self, params: Sequence) -> bool:
        return all(q.evaluate(params) > 0 for q in self.inequalities)


@memo
def delta_domain(spec: CrossSectionSpec) -> PolytopeDomain:
    """Irredundant strict inequalities cutting out the positive slice."""
    # one inequality per coefficient direction: scaled to the primitive
    # integer direction, the smallest constant is the tightest, and equal
    # inequalities share it with their positions merged
    by_dir: dict[IntVector, tuple[Fraction, LinearInequality]] = {}
    for k in range(len(spec.lam)):
        const = spec.a0[k]
        coeffs = tuple(w[k] for w in spec.W)
        if all(c == 0 for c in coeffs):
            continue  # a0 > 0 makes the constraint vacuous
        direction = primitive(coeffs)
        lead = next(i for i, d in enumerate(direction) if d)
        nconst = const * direction[lead] / coeffs[lead]
        held = by_dir.get(direction)
        if held is None or nconst < held[0]:
            by_dir[direction] = (nconst, LinearInequality(const, coeffs,
                                                          (k + 1,)))
        elif nconst == held[0]:
            q = held[1]
            by_dir[direction] = (nconst, LinearInequality(
                q.const, q.coeffs, q.positions + (k + 1,)))
    kept = sorted((q for _, q in by_dir.values()),
                  key=lambda q: (q.positions, q.coeffs))
    # drop anything implied by the rest, one candidate at a time
    idx = 0
    while idx < len(kept):
        if _implied(kept[idx], kept[:idx] + kept[idx + 1:]):
            kept.pop(idx)
        else:
            idx += 1
    return PolytopeDomain(tuple(kept))


def _implied(candidate: LinearInequality,
             others: Sequence[LinearInequality]) -> bool:
    """Whether others > 0 forces candidate > 0, decided by one exact LP.

    Every constant is a center coordinate, hence positive, so t = 0 lies
    inside {others > 0}; and the candidate has a nonzero coefficient, so it
    takes no minimum at an interior point.  The candidate is therefore
    implied iff its minimum over the closure {others >= 0} is >= 0.  The
    minimum comes from a dense-tableau primal simplex with free
    t = t+ - t-, started at the slack basis (t = 0, feasible since the
    constants are positive) and pivoted by Bland's rule, which cannot cycle.
    It stops as soon as the candidate's value turns negative.

    The tableau is integral (integer pivoting as in Edmonds and in Avis's
    lrs).  Row i holds q_i scaled to primitive integers, with slack_i
    standing for that scaled q_i, so the slack basis is the identity; the
    last column is the right-hand side.  The objective row holds -cost and
    the candidate's value, scaled the same way.  Each step is one
    linalg._pivot over all m + 1 rows, which says why it is exact.  Every
    pivot is positive, so every row stays a positive multiple of its
    Fraction-tableau counterpart: signs and ratios, which are all the pivot
    rules read, are the same as over Fraction.
    """
    if not others:
        return False
    d, m = len(candidate.coeffs), len(others)
    width = 2 * d + m
    # row i: slack_i - c_i . (t+ - t-) = k_i, where (k_i, c_i) is q_i made
    # primitive and slack_i = k_i + c_i . t
    tab = []
    for i, q in enumerate(others):
        k, *c = _row(q)
        slack = [0] * m
        slack[i] = 1
        tab.append([-x for x in c] + c + slack + [k])
    k, *c = _row(candidate)
    tab.append([-x for x in c] + c + [0] * m + [k])  # the objective row
    basis = list(range(2 * d, width))
    det = 1
    while True:
        obj = tab[m]
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            return True  # optimal, and value never went below 0
        # min ratio rhs_i / a_i over a_i > 0, compared by cross-multiplying
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, tab[i][-1], a
                    continue
                lhs, rhs = tab[i][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, tab[i][-1], a
        if leave is None:
            return False  # unbounded below
        det = _pivot(tab, leave, enter, det, range(m + 1))
        basis[leave] = enter
        if tab[m][-1] < 0:
            return False  # the candidate's value went negative


@memo
def _row(q: LinearInequality) -> IntVector:
    """q's (const, *coeffs) made primitive, kept on q."""
    return primitive((q.const, *q.coeffs))


# ---------------------------------------------------------------------------
# Slice points
# ---------------------------------------------------------------------------


def point_at(spec: CrossSectionSpec, params: Sequence) -> tuple[Fraction, ...]:
    """Positive magnitudes a0 + sum t_i W_i; raises outside the domain."""
    vals = _slice_values(spec, params)
    if any(v <= 0 for v in vals):
        raise OutsideDomainError(f"parameters {params} leave the positive slice")
    return vals


def _slice_values(spec: CrossSectionSpec, params: Sequence) -> tuple[Fraction, ...]:
    ts = [Fraction(t) for t in params]
    if len(ts) != spec.dim:
        raise DimensionMismatchError(f"expected {spec.dim} parameters")
    den = lcm(*[t.denominator for t in ts])
    nums = [t.numerator * (den // t.denominator) for t in ts]
    return tuple(a + Fraction(s, den) if s else a for a, s in zip(
        spec.a0, [sum(n * w[k] for n, w in zip(nums, spec.W))
                  for k in range(len(spec.a0))]))


def sigma_point(spec: CrossSectionSpec, sign: Sequence[int],
                params: Sequence) -> StructureVector:
    """Apply a transversal sign mask to the slice point."""
    mags = point_at(spec, params)
    if len(sign) != len(mags):
        raise DimensionMismatchError("sign mask length mismatch")
    vals = tuple(-v if s else v for v, s in zip(mags, sign))
    return StructureVector(spec.lam, vals)


def display_value(value: Fraction, p: Fraction) -> str:
    """Render a signed slice value at the configured exponent.

    Nonunit exponents show as (base, exponent) pairs like ``-(3/2)^1/2``;
    exact arithmetic always happens on the base.
    """
    if p == 1:
        return str(value)
    mag = f"({abs(value)})^{p}"
    return f"-{mag}" if value < 0 else mag


def center_is_lie(spec: CrossSectionSpec) -> bool:
    """Whether the center point satisfies the Jacobi system exactly."""
    return is_lie(StructureVector(spec.lam, spec.a0))


# ---------------------------------------------------------------------------
# The projection map and its Jacobian
# ---------------------------------------------------------------------------


def f_jacobian(spec: CrossSectionSpec, params: Sequence,
               c=Fraction(1)) -> tuple[tuple[Fraction, ...], ...]:
    """Exact Jacobian: entry (i, j) is c * sum_k W_i[k] W_j[k] / a_k."""
    rows, den = _jacobian_numerators(spec, params)
    cf = Fraction(c)
    return tuple(tuple(cf * Fraction(x, den) for x in row) for row in rows)


def dominance_certificate(spec: CrossSectionSpec, params: Sequence) -> bool:
    """Strict diagonal dominance of the exact Jacobian at one point."""
    rows, _ = _jacobian_numerators(spec, params)
    return all(row[i] > sum(abs(x) for j, x in enumerate(row) if j != i)
               for i, row in enumerate(rows))


def _jacobian_numerators(spec: CrossSectionSpec, params: Sequence
                         ) -> tuple[list[list[int]], int]:
    """The Jacobian at c = 1 as integer rows over one denominator den > 0,
    the lcm of the magnitudes' numerators: den / a_k is an integer.  Only
    the upper triangle is summed; the matrix is symmetric."""
    mags = point_at(spec, params)
    den = lcm(*[a.numerator for a in mags])
    scaled = [[w[k] * a.denominator * (den // a.numerator)
               for k, a in enumerate(mags)] for w in spec.W]
    rows = [[0] * spec.dim for _ in spec.W]
    for i, u in enumerate(scaled):
        for j in range(i, spec.dim):
            rows[i][j] = rows[j][i] = sum(x * y for x, y in zip(u, spec.W[j]))
    return rows, den


@dataclass(frozen=True)
class Certificate:
    certified: bool
    reason: str = ""


def lemma58_certificate(spec: CrossSectionSpec) -> Certificate:
    """Combinatorial injectivity certificate on the supports of W.

    Requires every direction to be a w-vector (two aligned pairs sharing a
    quadruple), W a basis of the full left null space, and the support
    conditions: each support owns a private position, and each position of a
    support appears at most once among the other supports.  Per-vector
    negation is immaterial since only supports are inspected.
    """
    if spec.dim == 0:
        return Certificate(True, "zero-dimensional slice")
    ts, supports = spec.lam.triples, []
    for w in spec.W:  # w = e_a + e_b - e_c - e_d, both pairs aligned
        plus = [k for k, v in enumerate(w) if v == 1]
        minus = [k for k, v in enumerate(w) if v == -1]
        if len(plus) != 2 or len(minus) != 2 or \
                any(v not in (-1, 0, 1) for v in w):
            return Certificate(
                False, f"{w} is not of the form e_a + e_b - e_c - e_d")
        try:
            q_plus = quadruple_of(ts[plus[0]], ts[plus[1]])
            q_minus = quadruple_of(ts[minus[0]], ts[minus[1]])
        except (NotAlignedError, ModeError):
            return Certificate(False, f"{w} does not join two aligned pairs")
        if q_plus != q_minus:
            return Certificate(
                False, f"{w} joins pairs with different quadruples")
        supports.append(frozenset(plus + minus))
    kernel = kernel_basis(spec.lam)
    if spec.dim != len(kernel) or not span_equals(spec.W, kernel):
        return Certificate(False, "directions are not a null-space basis")
    for i, supp in enumerate(supports):
        others = [supports[j] for j in range(len(supports)) if j != i]
        if not any(all(pos not in o for o in others) for pos in supp):
            return Certificate(
                False, f"every position of direction {i + 1} recurs elsewhere")
        for pos in supp:
            if sum(pos in o for o in others) > 1:
                return Certificate(
                    False,
                    f"position {pos + 1} of direction {i + 1} recurs twice")
    return Certificate(True, "supports satisfy the dominance conditions")


# ---------------------------------------------------------------------------
# Branch solving at fixture scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveSolution:
    """solve_var = numerator(free)/denominator(free), coefficients ascending."""

    solve_var: int
    free_var: int
    numerator: tuple[Fraction, ...]
    denominator: tuple[Fraction, ...]

    def value(self, free_value) -> Fraction | None:
        den = eval_univar(self.denominator, free_value)
        if den == 0:
            return None
        return eval_univar(self.numerator, free_value) / den

    def params(self, free_value) -> tuple[Fraction, ...] | None:
        v = self.value(free_value)
        if v is None:
            return None
        out = [Fraction(0), Fraction(0)]
        out[self.free_var] = Fraction(free_value)
        out[self.solve_var] = v
        return tuple(out)

    def render(self) -> str:
        names = "st"
        num = _poly_str(self.numerator, names[self.free_var])
        den = _poly_str(self.denominator, names[self.free_var])
        body = num if den == "1" else f"({num})/({den})"
        return f"{names[self.solve_var]} = {body}"


def _poly_str(coeffs: Sequence[Fraction], name: str) -> str:
    return format_sum((c, "" if e == 0 else name if e == 1 else f"{name}^{e}")
                      for e, c in enumerate(coeffs))


INCONSISTENT = "inconsistent"
POINTS = "points"
CURVE = "curve"
FULL_DOMAIN = "full-domain"


@dataclass(frozen=True)
class BranchSolution:
    sign: tuple[int, ...]
    status: str
    points: tuple[tuple[Fraction, ...], ...] = ()
    curve: CurveSolution | None = None
    note: str = ""


def branch_polynomial(spec: CrossSectionSpec, pairs: Sequence[AlignedPair],
                      sign: Sequence[int]) -> tuple[Poly, list[int]]:
    """Substitute the masked slice into one equation; also return term signs.

    Each term tau * x_p * x_r, with x = a0 + sum_i t_i W_i, is expanded
    straight into the coefficient dict.
    """
    d = spec.dim
    zero = (0,) * d
    units = [tuple(int(i == v) for i in range(d)) for v in range(d)]

    def affine(pos):
        return [(zero, spec.a0[pos])] + [
            (u, w[pos]) for u, w in zip(units, spec.W) if w[pos]]

    poly: dict = {}
    tsigns = []
    for ap in pairs:
        tau = ap.sign * (-1 if sign[ap.p] else 1) * (-1 if sign[ap.r] else 1)
        tsigns.append(tau)
        for e1, c1 in affine(ap.p):
            for e2, c2 in affine(ap.r):
                e = tuple(map(add, e1, e2))
                poly[e] = poly.get(e, 0) + tau * c1 * c2
    return {e: Fraction(c) for e, c in poly.items() if c}, tsigns


def solve_branch_fixtures(spec: CrossSectionSpec) -> list[BranchSolution]:
    """Solve the Jacobi system of spec.lam on each GF(2) coset branch.

    Supported shapes: at most two parameters, each equation a product-sum of
    affine slice entries (hence total degree two).  Everything is exact;
    shapes beyond that raise UnsupportedShapeError rather than approximate.
    """
    if spec.dim > 2:
        raise UnsupportedShapeError(
            f"{spec.dim} parameters exceed the supported branch-solving scale")
    domain = delta_domain(spec)
    return [_solve_one_branch(spec, sign, domain)
            for sign in gf2_coset_transversal(spec.lam)]


def _solve_one_branch(spec: CrossSectionSpec, sign: Sequence[int],
                      domain: PolytopeDomain) -> BranchSolution:
    d = spec.dim
    sign = tuple(sign)
    polys = []
    for pairs in jacobi_system(spec.lam).values():
        poly, tsigns = branch_polynomial(spec, pairs, sign)
        if tsigns and len(set(tsigns)) == 1:
            return BranchSolution(sign, INCONSISTENT,
                                  note="all terms share one sign")
        if poly:
            polys.append(poly)
    if not polys:
        if d == 0:
            return BranchSolution(sign, POINTS, points=((),))
        return BranchSolution(sign, FULL_DOMAIN,
                              note="identity holds on the whole slice")
    if d == 0:
        return BranchSolution(sign, INCONSISTENT,
                              note="nonzero constant residual")
    if d == 1:
        roots = _common_roots(_restrict(p, 0) for p in polys)
        return _admissible(sign, [(r,) for r in roots], domain)
    return _solve_bivariate(polys, sign, domain)


def _restrict(poly: Poly, v: int, value=0) -> list[Fraction]:
    """poly's coefficients in parameter v, the other parameter set to value."""
    return [eval_univar(b, value) for b in univariate_in(poly, v)]


def _common_roots(univariates: Iterable[Sequence[Fraction]]
                  ) -> set[Fraction] | None:
    """The rational roots common to the nonzero polynomials, or None when
    every polynomial is zero.

    It stops at the first empty intersection: rational_roots returns only
    once it has every real root, so no later polynomial can add one.
    """
    common = None
    for coeffs in univariates:
        if any(coeffs):
            roots = set(rational_roots(coeffs))
            common = roots if common is None else common & roots
            if not common:
                break
    return common


def _admissible(sign, points: Iterable[tuple[Fraction, ...]],
                domain: PolytopeDomain) -> BranchSolution:
    """The distinct points inside the domain, in order, or INCONSISTENT."""
    points = tuple(pt for pt in sorted(set(points)) if domain.contains(pt))
    if points:
        return BranchSolution(sign, POINTS, points=points)
    return BranchSolution(sign, INCONSISTENT, note="no admissible roots")


def _linear_solve_var(poly: Poly) -> tuple[int, list[Fraction], list[Fraction]] | None:
    """Find a variable of degree one: poly = den(u)*v + (-num(u))."""
    for v in (0, 1):
        if degree_in(poly, v) == 1:
            low, den = univariate_in(poly, v)
            return v, [-c for c in low], den
    return None


def _substitute_curve(poly: Poly, solve_var: int, num: list[Fraction],
                      den: list[Fraction]) -> list[Fraction]:
    """Numerator of poly after v := num/den, cleared by den^deg."""
    buckets = univariate_in(poly, solve_var)
    deg = len(buckets) - 1
    total: list[Fraction] = []
    for e, term in enumerate(buckets):
        for _ in range(e):
            term = mul_univar(term, num)
        for _ in range(deg - e):
            term = mul_univar(term, den)
        total = add_univar(total, term)
    return total


def _vertical_line_meets_domain(domain: PolytopeDomain, free_var: int,
                                value: Fraction) -> bool:
    """Whether {params[free_var] = value} intersects the open domain.

    On the line each inequality reads const + coeff * s > 0: a lower bound
    on s, an upper bound, or (coeff 0) a condition on const alone.
    """
    other = 1 - free_var
    lower, upper = [], []
    for q in domain.inequalities:
        const = q.const + q.coeffs[free_var] * value
        coeff = q.coeffs[other]
        if coeff > 0:
            lower.append(-const / coeff)
        elif coeff < 0:
            upper.append(-const / coeff)
        elif const <= 0:
            return False
    return not lower or not upper or max(lower) < min(upper)


def _solve_bivariate(polys: list[Poly], sign, domain) -> BranchSolution:
    pick = None
    for idx, poly in enumerate(polys):
        found = _linear_solve_var(poly)
        if found:
            pick = (idx, *found)
            break
        # a genuinely univariate equation fixes one variable outright
        for v in (0, 1):
            if degree_in(poly, 1 - v) == 0 and degree_in(poly, v) >= 1:
                return _admissible(sign, [
                    pt for root in rational_roots(_restrict(poly, v))
                    for pt in _solve_on_vertical_line(polys, v, root)], domain)
    if pick is None:
        raise UnsupportedShapeError(
            "no equation is linear in either parameter")
    idx, solve_var, num, den = pick
    free_var = 1 - solve_var
    curve = CurveSolution(solve_var, free_var, tuple(num), tuple(den))
    # denominator root with vanishing numerator would add a vertical component
    if len(den) == 2:
        den_root = -den[0] / den[1]
        if eval_univar(num, den_root) == 0 and \
                _vertical_line_meets_domain(domain, free_var, den_root):
            raise UnsupportedShapeError(
                "solution set degenerates into several components")
    candidates = _common_roots(_substitute_curve(p, solve_var, num, den)
                               for i, p in enumerate(polys) if i != idx)
    if candidates is None:
        return BranchSolution(sign, CURVE, curve=curve)
    points = []
    for x in sorted(candidates):
        params = curve.params(x)
        # None at a pole: num(x) != 0 there, or its line misses the domain
        if params is not None and all(evaluate(p, params) == 0 for p in polys):
            points.append(params)
    return _admissible(sign, points, domain)


def _solve_on_vertical_line(polys: list[Poly], fixed_var: int,
                            value: Fraction) -> list[tuple[Fraction, ...]]:
    """Common rational zeros on {params[fixed_var] = value}."""
    other = 1 - fixed_var
    common = _common_roots(_restrict(p, other, value) for p in polys)
    if common is None:
        raise UnsupportedShapeError(
            "a full line of solutions beyond fixture scale")
    return [(value, r) if other else (r, value) for r in sorted(common)]


def lie_points(spec: CrossSectionSpec,
               branches: Iterable[BranchSolution]) -> list[StructureVector]:
    """Exact representatives from all finite branches."""
    out = []
    for branch in branches:
        if branch.status == POINTS:
            for params in branch.points:
                out.append(sigma_point(spec, branch.sign, params))
    return out


def curve_samples(spec: CrossSectionSpec, branch: BranchSolution,
                  count: int = 3
                  ) -> list[tuple[tuple[Fraction, ...], StructureVector]]:
    """Some exact on-curve points inside the domain, for reports and tests."""
    if branch.curve is None:
        return []
    domain = delta_domain(spec)
    out = []
    den = 2 * count + 5
    k = 1
    while len(out) < count and k < 100 * count:
        for candidate in (Fraction(k, den), Fraction(-k, den)):
            params = branch.curve.params(candidate)
            if params is not None and domain.contains(params):
                out.append((params, sigma_point(spec, branch.sign, params)))
                if len(out) >= count:
                    break
        k += 1
    return out
