"""Fourier-Motzkin elimination: the slow, independent oracle for the exact
LP redundancy test and the one-variable interval test in cross_sections.

Its cost grows doubly exponentially with the number of variables, so the
tests only feed it small systems.
"""

from fractions import Fraction

Constraint = tuple[tuple[Fraction, ...], Fraction, bool]  # coeffs, const, strict


def fm_feasible(constraints: list[Constraint], nvars: int) -> bool:
    """Fourier-Motzkin feasibility of {coeffs.t + const (>|>=) 0}."""
    current = constraints
    for v in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, const, strict in current:
            if coeffs[v] > 0:
                pos.append((coeffs, const, strict))
            elif coeffs[v] < 0:
                neg.append((coeffs, const, strict))
            else:
                rest.append((coeffs, const, strict))
        combined = rest
        for pc, pb, ps in pos:
            for nc, nb, ns in neg:
                fp, fn = -nc[v], pc[v]
                coeffs = tuple(fp * a + fn * b for a, b in zip(pc, nc))
                const = fp * pb + fn * nb
                combined.append((coeffs, const, ps or ns))
        current = list(set(combined))
    for _, const, strict in current:
        if strict and const <= 0:
            return False
        if not strict and const < 0:
            return False
    return True


def fm_implied(candidate, others) -> bool:
    """Whether others > 0 forces candidate > 0: {others > 0, candidate <= 0}
    has no solution."""
    system = [(q.coeffs, q.const, True) for q in others]
    system.append((tuple(-c for c in candidate.coeffs), -candidate.const,
                   False))
    return bool(others) and not fm_feasible(system, len(candidate.coeffs))


def fm_line_meets_domain(domain, free_var: int, value: Fraction) -> bool:
    """Whether {params[free_var] = value} meets the open two-parameter domain."""
    other = 1 - free_var
    system = [((q.coeffs[other],), q.const + q.coeffs[free_var] * value, True)
              for q in domain.inequalities]
    return fm_feasible(system, 1)
