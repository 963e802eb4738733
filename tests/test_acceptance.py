"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; everything asserts exactly (rationals compare with ==), the only
tolerance is the stated 1e-6 for the finite-difference Jacobian check.
"""

import random
from fractions import Fraction
from itertools import combinations

from liestrata import (apply_diagonal, brute_force_jacobiator, classify,
                       cross_section, curve_samples, d_orbit_equivalent,
                       delta_domain, dominance_certificate, enumerate_theta,
                       evaluate_jacobi, f_jacobian,
                       gf2_column_space_contains, gf2_coset_transversal,
                       gf2_rank, gf2_root_matrix, is_lie, jacobi_system,
                       lambda_subspace, left_null_basis, lemma58_certificate,
                       lie_points, null_space_spanning, obstruction_status,
                       parse_index_set, quadruple_table, root_matrix,
                       sigma_point, solve_branch_fixtures, span_equals,
                       structure_vector, sweep_strata, w_vector)
from liestrata.jacobi import format_system
from liestrata.linalg import rank as q_rank
from liestrata.linalg import transpose

from conftest import (FILIFORM4, HEISENBERG5, MULT2_PLUS_MULT3,
                      ONE_QUAD_MULT2, ONE_QUAD_MULT3, ONE_QUAD_NON_SPANNING,
                      TWO_QUADS_MULT2, multiplicities, random_index_set,
                      random_nonzero_diag, random_structure_vector)
from jacobian_oracle import f_value


def _pass(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_c01_filiform4():
    lam = parse_index_set(FILIFORM4)
    assert root_matrix(lam) == ((1, 1, -1, 0), (1, 0, 1, -1))
    assert gf2_root_matrix(lam) == ((1, 1, 1, 0), (1, 0, 1, 1))
    assert left_null_basis(root_matrix(lam)) == ()
    assert gf2_coset_transversal(lam) == ((0, 0),)
    assert obstruction_status(lam) == "automatic"
    ones = structure_vector(lam, [1, 1])
    rng = random.Random(101)
    for _ in range(100):
        a = random_structure_vector(rng, lam, bound=30)
        assert d_orbit_equivalent(a, ones)
    _pass(1, "dimension-4 filiform stratum")


def test_c02_heisenberg5():
    lam = parse_index_set(HEISENBERG5)
    assert root_matrix(lam) == ((1, 1, 0, 0, -1), (0, 0, 1, 1, -1))
    assert left_null_basis(root_matrix(lam)) == ()
    spec = cross_section(lam)
    branches = solve_branch_fixtures(spec)
    reps = lie_points(spec, branches)
    assert [v.values for v in reps] == [(Fraction(1), Fraction(1))]
    _pass(2, "dimension-5 Heisenberg stratum")


def test_c03_one_quad_mult2():
    lam = parse_index_set(ONE_QUAD_MULT2)
    assert span_equals(left_null_basis(root_matrix(lam)),
                       [(1, -1, 0, 0, -1, 1)])
    assert gf2_rank(lam) == 5
    trans = gf2_coset_transversal(lam)
    assert len(trans) == 2
    for want in ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)):
        assert any(gf2_column_space_contains(
            lam, tuple(x ^ y for x, y in zip(want, got))) for got in trans)
    assert multiplicities(lam) == {(1, 2, 3, 7): 2}
    signs = {tuple(sorted((tuple(lam.triples[ap.p]), tuple(lam.triples[ap.r])))):
             ap.sign for ap in quadruple_table(lam)[(1, 2, 3, 7)]}
    assert signs == {((1, 2, 4), (3, 4, 7)): -1, ((1, 3, 5), (2, 5, 7)): 1}
    assert format_system(lam) == [
        "(1,2,3,7): -a[1,2,4]*a[3,4,7] + a[1,3,5]*a[2,5,7] = 0"]
    spec = cross_section(lam)
    reps = lie_points(spec, solve_branch_fixtures(spec))
    assert [v.values for v in reps] == [(1, 1, 1, 1, 1, 1)]
    _pass(3, "single multiplicity-two quadruple stratum")


def test_c04_one_quad_mult3():
    lam = parse_index_set(ONE_QUAD_MULT3)
    y = root_matrix(lam)
    assert q_rank(y) == 5
    assert span_equals(left_null_basis(y), [(0, 1, 0, -1, -1, 1, 0),
                                            (1, 0, 0, -1, -1, 0, 1)])
    assert multiplicities(lam) == {(1, 2, 3, 7): 3}
    assert classify(lam) == "onedim-1q3"
    spec = cross_section(lam, a0=[1, 2, 1, 1, 1, 2, 1])
    dom = delta_domain(spec)
    assert {(q.const, q.coeffs) for q in dom.inequalities} == {
        (Fraction(2), (Fraction(1), Fraction(0))),
        (Fraction(1), (Fraction(0), Fraction(1))),
        (Fraction(1), (Fraction(-1), Fraction(-1)))}
    branches = {b.sign: b for b in solve_branch_fixtures(spec)}
    assert branches[(0, 0, 0, 0, 0, 1, 0)].status == "inconsistent"

    curves = {
        (0, 0, 0, 0, 0, 0, 0):
            lambda t: ((1 - t * t) / (t - 3), t),
        (0, 0, 0, 0, 0, 0, 1):
            lambda s: (s, (3 * s + 2) / (s - 2)),
        (0, 0, 0, 0, 0, 1, 1):
            lambda s: (s, (s * s + s + 2) / (2 - s)),
    }
    for sign, param_of in curves.items():
        branch = branches[sign]
        assert branch.status == "curve"
        on_curve = 0
        k = 1
        while on_curve < 20:
            x = Fraction(k, 23) * (1 if k % 2 else -1)
            k += 1
            params = param_of(x)
            if not dom.contains(params):
                continue
            on_curve += 1
            vec = sigma_point(spec, sign, params)
            assert evaluate_jacobi(vec) == (Fraction(0),)
            # the solver's curve describes the same zero set
            free = params[branch.curve.free_var]
            assert branch.curve.value(free) == params[branch.curve.solve_var]
        rng = random.Random(hash(sign) & 0xFFFF)
        off_curve = 0
        while off_curve < 20:
            params = (Fraction(rng.randint(-180, 90), 100),
                      Fraction(rng.randint(-90, 90), 100))
            if not dom.contains(params):
                continue
            free = params[branch.curve.free_var]
            if branch.curve.value(free) == params[branch.curve.solve_var]:
                continue
            off_curve += 1
            vec = sigma_point(spec, sign, params)
            assert evaluate_jacobi(vec) != (Fraction(0),)
    _pass(4, "single multiplicity-three quadruple stratum")


def test_c05_mult2_plus_mult3():
    lam = parse_index_set(MULT2_PLUS_MULT3)
    assert len(left_null_basis(root_matrix(lam))) == 3
    assert multiplicities(lam) == {(1, 2, 3, 6): 2, (1, 2, 4, 7): 3}
    signs = {(ap.p + 1, ap.r + 1): ap.sign
             for pairs in quadruple_table(lam).values() for ap in pairs}
    assert signs == {(2, 7): 1, (4, 6): -1,
                     (1, 9): 1, (3, 8): 1, (5, 7): -1}
    # linear dependency of the four pair-combination vectors: the three
    # vectors of the multiplicity-three quadruple telescope to zero, and the
    # four together span only the three-dimensional kernel
    m = len(lam)
    w1 = w_vector(3, 5, 1, 6, m)
    w2 = w_vector(4, 6, 2, 7, m)
    w3 = w_vector(2, 7, 0, 8, m)
    w4 = w_vector(0, 8, 4, 6, m)
    assert tuple(a + b + c for a, b, c in zip(w2, w3, w4)) == (0,) * m
    assert q_rank([w1, w2, w3, w4]) == 3
    assert null_space_spanning(lam)

    rendered = format_system(lam)
    assert rendered == [
        "(1,2,3,6): a[1,3,4]*a[2,4,6] - a[1,5,6]*a[2,3,5] = 0",
        "(1,2,4,7): a[1,2,3]*a[3,4,7] + a[1,4,5]*a[2,5,7] "
        "- a[1,6,7]*a[2,4,6] = 0"]

    from liestrata.cross_sections import branch_polynomial
    spec = cross_section(lam, a0=[1, 1, 1, 1, 1, 2, 2, 1, 1],
                         W=[w1, w3, tuple(-x for x in w4)])
    zero = (0,) * m
    equations = list(jacobi_system(lam).values())
    p1, _ = branch_polynomial(spec, equations[0], zero)
    p2, _ = branch_polynomial(spec, equations[1], zero)
    want1 = {(1, 0, 0): Fraction(6), (0, 0, 1): Fraction(-1),
             (1, 0, 1): Fraction(1)}
    want2 = {(0, 2, 0): Fraction(-2), (0, 1, 1): Fraction(-2),
             (1, 0, 0): Fraction(-1), (0, 0, 1): Fraction(5),
             (1, 0, 1): Fraction(-1)}
    assert p1 in (want1, {e: -c for e, c in want1.items()})
    assert p2 in (want2, {e: -c for e, c in want2.items()})

    jac = f_jacobian(spec, [0, 0, 0])
    assert jac == ((Fraction(3), Fraction(0), Fraction(-1, 2)),
                   (Fraction(0), Fraction(4), Fraction(2)),
                   (Fraction(-1, 2), Fraction(2), Fraction(7, 2)))
    assert dominance_certificate(spec, [0, 0, 0])
    assert lemma58_certificate(spec).certified
    _pass(5, "mixed multiplicity-two/-three stratum")


def test_c06_two_quads_mult2():
    lam = parse_index_set(TWO_QUADS_MULT2)
    assert multiplicities(lam) == {(1, 2, 3, 7): 2, (1, 2, 4, 8): 2}
    assert len(left_null_basis(root_matrix(lam))) == 2
    assert null_space_spanning(lam)
    spec = cross_section(lam)
    reps = lie_points(spec, solve_branch_fixtures(spec))
    assert [v.values for v in reps] == [(1,) * 8]
    _pass(6, "two multiplicity-two quadruples stratum")


def test_c07_non_spanning():
    lam = parse_index_set(ONE_QUAD_NON_SPANNING)
    assert multiplicities(lam) == {(1, 2, 4, 8): 2}
    pairs = {tuple(sorted((tuple(lam.triples[ap.p]), tuple(lam.triples[ap.r]))))
             for ap in quadruple_table(lam)[(1, 2, 4, 8)]}
    assert pairs == {((1, 4, 6), (2, 6, 8)), ((1, 7, 8), (2, 4, 7))}
    assert len(lambda_subspace(lam)) == 1
    assert len(left_null_basis(root_matrix(lam))) == 2
    assert not null_space_spanning(lam)
    _pass(7, "non-spanning stratum")


def test_c08_oracle_equivalence():
    rng = random.Random(108)
    mismatches = 0
    for _ in range(1000):
        lam = random_index_set(rng, n_max=8, size_max=10)
        a = random_structure_vector(rng, lam, bound=50)
        if is_lie(a) != brute_force_jacobiator(lam, a):
            mismatches += 1
    assert mismatches == 0
    # points constructed on fixture curves satisfy the oracle too
    lam = parse_index_set(ONE_QUAD_MULT3)
    spec = cross_section(lam, a0=[1, 2, 1, 1, 1, 2, 1])
    branches = solve_branch_fixtures(spec)
    sampled = 0
    for branch in branches:
        if branch.status != "curve":
            continue
        for _, vec in curve_samples(spec, branch, count=10):
            sampled += 1
            assert brute_force_jacobiator(lam, vec)
    assert sampled >= 30
    _pass(8, "oracle equivalence on 1000 random strata")


def test_c09_obstruction_corollaries():
    rng = random.Random(109)
    found_empty = found_automatic = 0
    while found_empty < 200 or found_automatic < 200:
        lam = random_index_set(rng, n_max=8, size_max=10)
        status = obstruction_status(lam)
        if status == "empty" and found_empty < 200:
            found_empty += 1
            for _ in range(100):
                a = random_structure_vector(rng, lam)
                assert not brute_force_jacobiator(lam, a)
        elif status == "automatic" and found_automatic < 200 and lam.triples:
            found_automatic += 1
            for _ in range(100):
                a = random_structure_vector(rng, lam)
                assert brute_force_jacobiator(lam, a)
    _pass(9, "multiplicity-one and no-quadruple corollaries")


def test_c10_subspace_always_in_kernel():
    rng = random.Random(110)
    for _ in range(1000):
        lam = random_index_set(rng, n_max=8, size_max=10)
        yt = transpose(root_matrix(lam))
        for w in lambda_subspace(lam):
            assert all(sum(row[k] * w[k] for k in range(len(w))) == 0
                       for row in yt)
    _pass(10, "pair-combination vectors stay in the left kernel")


def test_c11_conjugacy_and_jacobian():
    rng = random.Random(111)
    done = 0
    while done < 500:
        lam = random_index_set(rng, n_max=8, size_max=10)
        if not lam.triples:
            continue
        done += 1
        a = random_structure_vector(rng, lam)
        g = random_nonzero_diag(rng, lam.n)
        assert d_orbit_equivalent(a, apply_diagonal(g, a))

    checked = 0
    step = Fraction(1, 100000)
    while checked < 100:
        lam = random_index_set(rng, n_max=7, size_max=9)
        basis = left_null_basis(root_matrix(lam))
        if not basis:
            continue
        spec = cross_section(lam)
        d = spec.dim
        params = [Fraction(rng.randint(-20, 20), 100) for _ in range(d)]
        values = [spec.a0[k] + sum(t * w[k] for t, w in zip(params, spec.W))
                  for k in range(len(lam))]
        if any(v < Fraction(1, 4) for v in values):
            continue
        checked += 1
        jac = f_jacobian(spec, params)
        for j in range(d):
            plus, minus = list(params), list(params)
            plus[j] += step
            minus[j] -= step
            fp = f_value(spec, 1, plus)
            fm = f_value(spec, 1, minus)
            for i in range(d):
                approx = (fp[i] - fm[i]) / (2 * float(step))
                exact = float(jac[i][j])
                assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))
    _pass(11, "diagonal conjugacy and exact Jacobian")


def _independent_automatic_count(n: int) -> int:
    """Subsets with no aligned pair, by direct root-vector search."""
    def root(t):
        v = [0] * n
        v[t[0] - 1] += 1
        v[t[1] - 1] += 1
        v[t[2] - 1] -= 1
        return v

    theta = [tuple(t) for t in enumerate_theta(n)]
    roots = [root(t) for t in theta]
    count = 0
    for size in range(len(theta) + 1):
        for combo in combinations(range(len(theta)), size):
            ok = True
            for a in range(len(combo)):
                for b in range(a + 1, len(combo)):
                    dot = sum(x * y for x, y in
                              zip(roots[combo[a]], roots[combo[b]]))
                    if dot == -1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
    return count


def test_c12_sweep_counts():
    four = list(sweep_strata(4))
    assert len(four) == 16
    five = list(sweep_strata(5))
    assert len(five) == 2 ** 10
    automatic = sum(1 for s in five if s.obstruction == "automatic")
    assert automatic == _independent_automatic_count(5)
    _pass(12, "sweep counts against the brute-force census")
