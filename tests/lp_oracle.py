"""The Fraction simplex: the independent oracle for the integer-pivoting
redundancy LP in cross_sections._implied.

Same LP, same start and same pivot rules, but every tableau entry is a
Fraction and each pivot row is normalized, so the two must agree on every
verdict.  Unlike Fourier-Motzkin it stays cheap at 5-10 parameters.
"""

from fractions import Fraction


def fraction_implied(candidate, others) -> bool:
    """Whether others > 0 forces candidate > 0: minimize the candidate over
    {others >= 0} from the slack basis at t = 0 with Bland's rule, t free as
    t+ - t-, stopping once its value goes negative."""
    if not others:
        return False
    d, m = len(candidate.coeffs), len(others)
    zero, one = Fraction(0), Fraction(1)
    # row i: slack_i - q_i.coeffs . (t+ - t-) = q_i.const, slack_i = q_i(t)
    rows = []
    for i, q in enumerate(others):
        slack = [zero] * m
        slack[i] = one
        coeffs = [Fraction(c) for c in q.coeffs]
        rows.append([-c for c in coeffs] + coeffs + slack)
    rhs = [Fraction(q.const) for q in others]
    basis = list(range(2 * d, 2 * d + m))
    coeffs = [Fraction(c) for c in candidate.coeffs]
    cost = coeffs + [-c for c in coeffs] + [zero] * m
    value = candidate.const  # the candidate at the current vertex
    while True:
        enter = next((j for j, r in enumerate(cost) if r < 0), None)
        if enter is None:
            return True  # optimal, and value never went below 0
        leave = best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = rhs[i] / row[enter]
                if leave is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            return False  # unbounded below
        piv = rows[leave][enter]
        prow = [x / piv for x in rows[leave]]
        prhs = rhs[leave] / piv
        rows[leave], rhs[leave], basis[leave] = prow, prhs, enter
        for i, row in enumerate(rows):
            f = row[enter]
            if i != leave and f:
                rows[i] = [a - f * b for a, b in zip(row, prow)]
                rhs[i] -= f * prhs
        f = cost[enter]
        cost = [a - f * b for a, b in zip(cost, prow)]
        value += f * prhs
        if value < 0:
            return False
