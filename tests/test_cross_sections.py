import dataclasses
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from liestrata import (DimensionMismatchError, OutsideDomainError,
                       StructureVector, UnsupportedShapeError, apply_diagonal,
                       brute_force_jacobiator, cross_section, curve_samples,
                       delta_domain, dominance_certificate, evaluate_jacobi,
                       f_jacobian, jacobi_system, left_null_basis,
                       lemma58_certificate, lie_points,
                       magnitude_orbit_equivalent, point_at, sigma_point,
                       solve_branch_fixtures, structure_vector, w_vector)
from liestrata import cross_sections, parse_index_set
from liestrata.linalg import kernel_basis
from liestrata.report import build_cross_section_report
from liestrata.cross_sections import (Certificate, CrossSectionSpec,
                                      CurveSolution,
                                      LinearInequality, PolytopeDomain,
                                      _common_roots,
                                      _vertical_line_meets_domain,
                                      branch_polynomial)
from liestrata.triples import IndexSet, enumerate_theta

import conftest
import jacobian_oracle
from jacobian_oracle import f_value
from conftest import random_index_set, random_rational
from fm_oracle import fm_implied, fm_line_meets_domain
from lp_oracle import fraction_implied


def ineq_set(domain):
    return {(q.const, q.coeffs) for q in domain.inequalities}


def fr(*args):
    return Fraction(*args)


def paper_w_basis_mult2_plus_mult3(m=9):
    w1 = w_vector(3, 5, 1, 6, m)
    w2 = w_vector(2, 7, 0, 8, m)
    w3 = tuple(-x for x in w_vector(0, 8, 4, 6, m))
    return [w1, w2, w3]


def test_domain_one_quad_mult2(one_quad_mult2):
    spec = cross_section(one_quad_mult2)
    dom = delta_domain(spec)
    assert ineq_set(dom) == {(fr(1), (fr(1),)), (fr(1), (fr(-1),))}


def test_domain_one_quad_mult3(one_quad_mult3):
    spec = cross_section(one_quad_mult3, a0=[1, 2, 1, 1, 1, 2, 1])
    dom = delta_domain(spec)
    assert ineq_set(dom) == {
        (fr(2), (fr(1), fr(0))),          # s > -2
        (fr(1), (fr(0), fr(1))),          # t > -1
        (fr(1), (fr(-1), fr(-1))),        # s + t < 1
    }


def test_domain_mult2_plus_mult3(mult2_plus_mult3):
    spec = cross_section(mult2_plus_mult3, a0=[1, 1, 1, 1, 1, 2, 2, 1, 1],
                         W=paper_w_basis_mult2_plus_mult3())
    dom = delta_domain(spec)
    assert ineq_set(dom) == {
        (fr(1), (fr(0), fr(-1), fr(-1))),   # 1 - t - u > 0
        (fr(1), (fr(-1), fr(0), fr(0))),    # 1 - s > 0
        (fr(1), (fr(0), fr(1), fr(0))),     # 1 + t > 0
        (fr(1), (fr(1), fr(0), fr(0))),     # 1 + s > 0
        (fr(1), (fr(0), fr(0), fr(1))),     # 1 + u > 0
    }


def test_point_at(one_quad_mult2, one_quad_mult3):
    spec = cross_section(one_quad_mult2)
    s = fr("1/2")
    assert point_at(spec, [s]) == (1 + s, 1 - s, 1, 1, 1 - s, 1 + s)
    assert point_at(spec, [0]) == (1, 1, 1, 1, 1, 1)
    with pytest.raises(OutsideDomainError):
        point_at(spec, [2])
    spec3 = cross_section(one_quad_mult3, a0=[1, 2, 1, 1, 1, 2, 1])
    s, t = fr("1/3"), fr("1/5")
    assert point_at(spec3, [s, t]) == \
        (1 + t, 2 + s, 1, 1 - s - t, 1 - s - t, 2 + s, 1 + t)


def test_sigma_point_masks_entry(one_quad_mult2):
    spec = cross_section(one_quad_mult2)
    masked = sigma_point(spec, (0, 0, 0, 0, 0, 1), [fr("1/2")])
    assert masked.values[5] == fr("-3/2")
    assert masked.values[0] == fr("3/2")


def test_f_values_one_quad_mult2(one_quad_mult2):
    spec = cross_section(one_quad_mult2)
    assert f_value(spec, 1, [0]) == (0.0,)
    s = 0.25
    got = f_value(spec, 1, [fr(1, 4)])[0]
    assert abs(got - 2 * math.log((1 + s) / (1 - s))) < 1e-12
    assert f_jacobian(spec, [0]) == ((fr(4),),)


def test_f_value_one_quad_mult3(one_quad_mult3):
    spec = cross_section(one_quad_mult3, a0=[1, 2, 1, 1, 1, 2, 1])
    got = f_value(spec, 1, [0, 0])
    assert abs(got[0] - 2 * math.log(2)) < 1e-12
    assert abs(got[1]) < 1e-12


def test_jacobian_mult2_plus_mult3(mult2_plus_mult3):
    spec = cross_section(mult2_plus_mult3, a0=[1, 1, 1, 1, 1, 2, 2, 1, 1],
                         W=paper_w_basis_mult2_plus_mult3())
    jac = f_jacobian(spec, [0, 0, 0])
    assert jac == ((fr(3), fr(0), fr(-1, 2)),
                   (fr(0), fr(4), fr(2)),
                   (fr(-1, 2), fr(2), fr(7, 2)))
    assert dominance_certificate(spec, [0, 0, 0])
    cert = lemma58_certificate(spec)
    assert cert.certified


def test_jacobian_matches_finite_differences(mult2_plus_mult3):
    spec = cross_section(mult2_plus_mult3, a0=[1, 1, 1, 1, 1, 2, 2, 1, 1],
                         W=paper_w_basis_mult2_plus_mult3())
    rng = random.Random(51)
    dom = delta_domain(spec)
    step = Fraction(1, 100000)
    checked = 0
    while checked < 20:
        params = [Fraction(rng.randint(-60, 60), 100) for _ in range(3)]
        if not dom.contains(params):
            continue
        ok = True
        for d in range(3):
            shifted = list(params)
            shifted[d] += step
            if not dom.contains(shifted):
                ok = False
        if not ok:
            continue
        checked += 1
        jac = f_jacobian(spec, params)
        base = f_value(spec, 1, params)
        for d in range(3):
            plus = list(params)
            plus[d] += step
            minus = list(params)
            minus[d] -= step
            fp = f_value(spec, 1, plus)
            fm = f_value(spec, 1, minus)
            for i in range(3):
                approx = (fp[i] - fm[i]) / (2 * float(step))
                exact = float(jac[i][d])
                assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))
        assert all(math.isfinite(x) for x in base)


def test_dominance_trivial_single_direction(one_quad_mult2):
    spec = cross_section(one_quad_mult2)
    assert dominance_certificate(spec, [0])
    assert lemma58_certificate(spec).certified


def test_lemma_certificate_rejects_shared_positions(mult2_plus_mult3):
    # searched over this set's pair-combination vectors: position 7 sits in
    # three of the four supports, so picking those three must fail
    m = 9
    w_bad = [w_vector(3, 5, 1, 6, m), w_vector(4, 6, 2, 7, m),
             w_vector(0, 8, 4, 6, m)]
    supports = [frozenset(k for k, x in enumerate(w) if x) for w in w_bad]
    shared = [pos for pos in supports[1]
              if sum(pos in s for s in supports) == 3]
    assert shared  # the violating position exists
    spec = cross_section(mult2_plus_mult3, a0=[1, 1, 1, 1, 1, 2, 2, 1, 1],
                         W=w_bad)
    cert = lemma58_certificate(spec)
    assert not cert.certified


def test_lemma_certificate_rejects_non_w_vectors(one_quad_mult2):
    # a kernel vector that is not of the two-plus-two-minus shape
    spec = cross_section(one_quad_mult2, W=[(2, -2, 0, 0, -2, 2)])
    assert lemma58_certificate(spec) == Certificate(
        False, "(2, -2, 0, 0, -2, 2) is not of the form e_a + e_b - e_c - e_d")


@pytest.mark.parametrize("text, W, reason", [
    # one w-vector of a two-dimensional kernel
    ("n=6; (1,2,3) (1,3,4) (2,3,5) (2,3,6) (2,4,5) (2,4,6) (3,5,6) (4,5,6)",
     [(0, 0, 1, 0, -1, 0, -1, 1)], "directions are not a null-space basis"),
    # three w-vectors spanning the kernel; each of positions 1, 3, 8, 9 of
    # the first one lies in another support
    ("n=7; (1,2,3) (1,3,6) (1,4,6) (1,5,7) (1,6,7) (2,4,5) (2,4,6) (2,6,7) "
     "(3,4,7) (4,6,7)",
     [(1, 0, -1, 0, 0, 0, 0, -1, 1, 0), (1, 0, 0, -1, 0, -1, 0, 0, 1, 0),
      (0, 0, 1, 0, -1, 0, -1, 1, 0, 0)],
     "every position of direction 1 recurs elsewhere")])
def test_lemma_certificate_refusal_reasons(text, W, reason):
    spec = cross_section(parse_index_set(text), W=W)
    assert lemma58_certificate(spec) == Certificate(False, reason)
    assert build_cross_section_report(spec)["certificate"] == \
        {"certified": False, "reason": reason}


def test_lemma_certificate_rejects_pairs_of_different_quadruples(
        two_quads_mult2):
    # (1,3,4)+(2,4,7) is aligned with quadruple (1,2,3,7), (1,4,6)+(2,6,8)
    # with (1,2,4,8); cross_section refuses the direction (it leaves
    # Null(Y^T)), so only a spec built by hand reaches this check
    w = (1, -1, 0, 0, 0, 1, -1, 0)
    with pytest.raises(DimensionMismatchError):
        cross_section(two_quads_mult2, W=[w])
    spec = CrossSectionSpec(two_quads_mult2, (Fraction(1),) * 8, (w,))
    assert lemma58_certificate(spec) == Certificate(
        False, "(1, -1, 0, 0, 0, 1, -1, 0) joins pairs with different "
        "quadruples")


def test_directions_must_be_integer_vectors():
    lam = parse_index_set(conftest.DIM7)
    w = kernel_basis(lam)[1]  # every entry is 0 or +-1
    assert cross_section(lam, W=[[Fraction(x) for x in w]]).W == (w,)
    # halved, int() would truncate every entry to 0: the zero direction
    with pytest.raises(DimensionMismatchError, match="integers"):
        cross_section(lam, W=[[Fraction(x, 2) for x in w]])


def test_center_must_be_positive(one_quad_mult2):
    with pytest.raises(OutsideDomainError):
        cross_section(one_quad_mult2, a0=[1, 1, 0, 1, 1, 1])
    with pytest.raises(OutsideDomainError):
        cross_section(one_quad_mult2, a0=[1, 1, -2, 1, 1, 1])


def test_branch_solving_one_quad_mult2(one_quad_mult2):
    spec = cross_section(one_quad_mult2)
    branches = solve_branch_fixtures(spec)
    by_sign = {b.sign: b for b in branches}
    zero = by_sign[(0,) * 6]
    assert zero.status == "points" and zero.points == ((fr(0),),)
    other = by_sign[(0, 0, 0, 0, 0, 1)]
    assert other.status == "inconsistent"
    reps = lie_points(spec, branches)
    assert [v.values for v in reps] == [(1, 1, 1, 1, 1, 1)]


def test_branch_solving_two_quads(two_quads_mult2):
    spec = cross_section(two_quads_mult2)
    branches = solve_branch_fixtures(spec)
    by_sign = {b.sign: b for b in branches}
    zero = by_sign[(0,) * 8]
    assert zero.status == "points"
    assert zero.points == ((fr(0), fr(0)),)
    assert all(b.status == "inconsistent"
               for sign, b in by_sign.items() if any(sign))
    reps = lie_points(spec, branches)
    assert [v.values for v in reps] == [(1,) * 8]


def expected_curves():
    # frozen from solving the three sign branches by hand:
    #   all-plus:            s(t) = (1 - t^2)/(t - 3)
    #   last entry negative: t(s) = (3s + 2)/(s - 2)
    #   last two negative:   t(s) = (s^2 + s + 2)/(2 - s)
    return {
        (0, 0, 0, 0, 0, 0, 0): ("s", lambda t: (1 - t * t) / (t - 3)),
        (0, 0, 0, 0, 0, 0, 1): ("s", lambda t: (2 * t + 2) / (t - 3)),
        (0, 0, 0, 0, 0, 1, 1): ("t", lambda s: (s * s + s + 2) / (2 - s)),
    }


def test_branch_solving_one_quad_mult3(one_quad_mult3):
    spec = cross_section(one_quad_mult3, a0=[1, 2, 1, 1, 1, 2, 1])
    branches = solve_branch_fixtures(spec)
    by_sign = {b.sign: b for b in branches}
    assert by_sign[(0, 0, 0, 0, 0, 1, 0)].status == "inconsistent"
    curves = expected_curves()
    for sign, (var, func) in curves.items():
        branch = by_sign[sign]
        assert branch.status == "curve"
        solved = "st"[branch.curve.solve_var]
        assert solved == var
        # frozen curve and computed curve agree on rational samples
        for k in range(1, 21):
            x = Fraction(k, 23) * (1 if k % 2 else -1)
            got = branch.curve.value(x)
            assert got == func(x)


def test_curve_samples_satisfy_system(one_quad_mult3):
    spec = cross_section(one_quad_mult3, a0=[1, 2, 1, 1, 1, 2, 1])
    branches = solve_branch_fixtures(spec)
    sampled = 0
    for branch in branches:
        if branch.status != "curve":
            continue
        for params, vec in curve_samples(spec, branch, count=20):
            sampled += 1
            assert evaluate_jacobi(vec) == (fr(0),)
    assert sampled >= 40
    # off-curve points have nonzero residual
    dom = delta_domain(spec)
    rng = random.Random(52)
    misses = 0
    while misses < 20:
        params = (Fraction(rng.randint(-120, 80), 100),
                  Fraction(rng.randint(-80, 80), 100))
        if not dom.contains(params):
            continue
        on_some_curve = any(
            b.curve is not None and
            b.curve.value(params[b.curve.free_var]) == params[b.curve.solve_var]
            for b in branches if b.status == "curve")
        if on_some_curve:
            continue
        misses += 1
        vec = sigma_point(spec, (0,) * 7, params)
        assert evaluate_jacobi(vec) != (fr(0),)


def test_zero_dimensional_slice(filiform4, heisenberg5):
    for lam in (filiform4, heisenberg5):
        spec = cross_section(lam)
        assert spec.dim == 0
        branches = solve_branch_fixtures(spec)
        assert len(branches) == 1
        assert branches[0].status == "points"
        assert branches[0].points == ((),)
        reps = lie_points(spec, branches)
        assert [v.values for v in reps] == [(1, 1)]


def test_unsupported_beyond_two_parameters(mult2_plus_mult3):
    spec = cross_section(mult2_plus_mult3, a0=[1, 1, 1, 1, 1, 2, 2, 1, 1])
    with pytest.raises(UnsupportedShapeError):
        solve_branch_fixtures(spec)


def test_branch_polynomials_mult2_plus_mult3(mult2_plus_mult3):
    spec = cross_section(mult2_plus_mult3, a0=[1, 1, 1, 1, 1, 2, 2, 1, 1],
                         W=paper_w_basis_mult2_plus_mult3())
    equations = list(jacobi_system(mult2_plus_mult3).values())
    zero = (0,) * 9
    p1, _ = branch_polynomial(spec, equations[0], zero)
    p2, _ = branch_polynomial(spec, equations[1], zero)
    # 6s - u + su and -2t^2 - 2ut - s + 5u - su, each up to overall sign
    want1 = {(1, 0, 0): fr(6), (0, 0, 1): fr(-1), (1, 0, 1): fr(1)}
    want2 = {(0, 2, 0): fr(-2), (0, 1, 1): fr(-2), (1, 0, 0): fr(-1),
             (0, 0, 1): fr(5), (1, 0, 1): fr(-1)}
    for got, want in ((p1, want1), (p2, want2)):
        neg = {e: -c for e, c in want.items()}
        assert got in (want, neg)


FIXTURES = (conftest.FILIFORM4, conftest.HEISENBERG5, conftest.ONE_QUAD_MULT2,
            conftest.ONE_QUAD_MULT3, conftest.MULT2_PLUS_MULT3,
            conftest.TWO_QUADS_MULT2, conftest.ONE_QUAD_NON_SPANNING,
            conftest.DIM7)


def masked_slice_residual(spec, pairs, sign, t):
    """Sum of sign * y_p * y_r over the aligned pairs at y = the sign-masked
    x = a0 + sum t_i W_i, computed entry by entry with no polynomial."""
    x = [a + sum(ti * w[k] for ti, w in zip(t, spec.W))
         for k, a in enumerate(spec.a0)]
    y = [-v if bit else v for v, bit in zip(x, sign)]
    return sum(ap.sign * y[ap.p] * y[ap.r] for ap in pairs)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_branch_polynomial_matches_direct_substitution(seed):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        lam = parse_index_set(rng.choice(FIXTURES))
    else:
        lam = random_index_set(rng, n_max=7, size_max=9)
        while len(kernel_basis(lam)) > 3 or not jacobi_system(lam):
            lam = random_index_set(rng, n_max=7, size_max=9)
    center = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
              for _ in lam.triples]
    spec = cross_section(lam, a0=center)
    for pairs in jacobi_system(lam).values():
        for _ in range(3):
            sign = tuple(rng.randint(0, 1) for _ in lam.triples)
            poly, _ = branch_polynomial(spec, pairs, sign)
            assert all(len(e) == spec.dim for e in poly)
            assert all(type(c) is Fraction and c != 0 for c in poly.values())
            for _ in range(2):
                t = [random_rational(rng) for _ in range(spec.dim)]
                value = sum(c * math.prod(ti ** k for ti, k in zip(t, e))
                            for e, c in poly.items())
                assert value == masked_slice_residual(spec, pairs, sign, t)


def test_boundedness_kernel_orthogonal_to_ones():
    rng = random.Random(53)
    for _ in range(200):
        lam = random_index_set(rng)
        from liestrata import root_matrix
        for w in left_null_basis(root_matrix(lam)):
            assert sum(w) == 0


def test_positivity_matches_domain(one_quad_mult3):
    spec = cross_section(one_quad_mult3, a0=[1, 2, 1, 1, 1, 2, 1])
    dom = delta_domain(spec)
    for num_s in range(-25, 15):
        for num_t in range(-15, 15):
            params = (Fraction(num_s, 10), Fraction(num_t, 10))
            inside = dom.contains(params)
            try:
                point_at(spec, params)
                positive = True
            except OutsideDomainError:
                positive = False
            assert inside == positive


def test_domain_keeps_the_tightest_inequality_per_direction():
    # 1 + 2s + 2t and 2 + 2s + 2t point the same way: the looser one goes
    # before any redundancy LP, which is then left with nothing to compare
    lam = IndexSet(6, tuple(enumerate_theta(6)[:2]))
    spec = CrossSectionSpec(lam, (fr(1), fr(2)), ((2, 2), (2, 2)))
    with mock.patch.object(cross_sections, "_implied",
                           wraps=cross_sections._implied) as spy:
        dom = delta_domain(spec)
    assert all(not call.args[1] for call in spy.call_args_list)
    assert dom.inequalities == (LinearInequality(1, (2, 2), (1,)),)
    # 1/2 + s + t is 1 + 2s + 2t scaled: one inequality at both positions
    lam = IndexSet(6, tuple(enumerate_theta(6)[:3]))
    spec = CrossSectionSpec(lam, (fr(2), fr(1), fr(1, 2)),
                            ((2, 2, 1), (2, 2, 1)))
    assert delta_domain(spec).inequalities == (
        LinearInequality(1, (2, 2), (2, 3)),)


def random_domain_spec(rng: random.Random) -> CrossSectionSpec:
    """Up to 4 parameters and 7 positions: integer W, positive rational center.

    W need not lie in a kernel; delta_domain reads only the center and W.
    Center entries come from a small set, so an inequality often meets the
    others' polyhedron in exactly one point or face (minimum exactly 0).
    """
    d, m = rng.randint(1, 4), rng.randint(1, 7)
    lam = IndexSet(6, tuple(enumerate_theta(6)[:m]))
    a0 = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 2))
               for _ in range(m))
    W = tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(d))
    return CrossSectionSpec(lam, a0, W)


def domains_by_lp_and(oracle, spec):
    """delta_domain of spec, and of an equal fresh spec with the oracle in
    place of the redundancy LP. The fresh spec has no memoized domain, so
    the oracle must run; it is asked exactly what the LP was asked."""
    with mock.patch.object(cross_sections, "_implied",
                           wraps=cross_sections._implied) as lp:
        by_lp = delta_domain(spec)
    with mock.patch.object(cross_sections, "_implied", wraps=oracle) as other:
        by_oracle = delta_domain(dataclasses.replace(spec))
    assert by_oracle is not by_lp
    assert other.call_args_list == lp.call_args_list
    return by_lp, by_oracle


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_domain_redundancy_lp_matches_fourier_motzkin(seed):
    spec = random_domain_spec(random.Random(seed))
    by_lp, by_fm = domains_by_lp_and(fm_implied, spec)
    assert by_lp.inequalities == by_fm.inequalities


def high_dim_domain_spec(rng: random.Random) -> CrossSectionSpec:
    """5-10 parameters and up to 18 positions, beyond Fourier-Motzkin's
    reach: W entries up to 5 in magnitude, non-unit rational centers.

    Some positions are positive combinations of two earlier ones with the
    combined center moved by -1/2, 0 or +1/2, so that implied inequalities,
    some met with equality, come up among the irredundant ones.
    """
    d = rng.randint(5, 10)
    m = rng.randint(d + 1, 18)
    cols, a0 = [], []
    for k in range(m):
        if k >= 2 and rng.random() < 0.4:
            i, j = rng.sample(range(k), 2)
            ci, cj = rng.randint(1, 3), rng.randint(1, 3)
            col = [ci * x + cj * y for x, y in zip(cols[i], cols[j])]
            shift = Fraction(rng.choice((-1, 0, 1)), 2)
            center = max(ci * a0[i] + cj * a0[j] + shift, Fraction(1, 3))
        else:
            col = [rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(d)]
            center = Fraction(rng.randint(1, 12), rng.randint(1, 5))
        cols.append(col)
        a0.append(center)
    lam = IndexSet(7, tuple(enumerate_theta(7)[:m]))
    W = tuple(tuple(col[i] for col in cols) for i in range(d))
    return CrossSectionSpec(lam, tuple(a0), W)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_integer_lp_matches_fraction_simplex_high_dim(seed):
    spec = high_dim_domain_spec(random.Random(seed))
    rows = [LinearInequality(a, tuple(w[k] for w in spec.W))
            for k, a in enumerate(spec.a0)]
    rows = [q for q in rows if any(q.coeffs)]
    for i, q in enumerate(rows):
        others = rows[:i] + rows[i + 1:]
        assert cross_sections._implied(q, others) == \
            fraction_implied(q, others)
    by_integer, by_fraction = domains_by_lp_and(fraction_implied, spec)
    assert by_integer.inequalities == by_fraction.inequalities


def jacobian_spec(rng: random.Random) -> CrossSectionSpec:
    """A high_dim_domain_spec, or in a third of the cases the same centers
    with W = (w, +-w, unit directions off the support of w), whose Jacobian
    meets diagonal dominance with equality in the rows of w and +-w."""
    spec = high_dim_domain_spec(rng)
    if rng.random() < 1 / 3:
        m = len(spec.a0)
        support = rng.sample(range(m), rng.randint(1, 3))
        w = tuple(rng.choice((-2, -1, 1, 3)) if k in support else 0
                  for k in range(m))
        units = [tuple(int(k == j) for k in range(m))
                 for j in range(m) if j not in support]
        spec = dataclasses.replace(spec, W=(
            w, tuple(rng.choice((1, -1)) * x for x in w),
            *units[:rng.randint(0, 3)]))
    return spec


def params_inside(rng: random.Random, spec: CrossSectionSpec) -> list:
    """The center, or parameters halved until the slice is positive."""
    if rng.random() < 0.25:
        return [Fraction(0)] * spec.dim
    params = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
              for _ in range(spec.dim)]
    while any(v <= 0 for v in jacobian_oracle.slice_values(spec, params)):
        params = [t / 2 for t in params]
    return params


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([Fraction(1), Fraction(-3, 2), Fraction(0),
                        Fraction(5, 7)]))
def test_integer_slice_and_jacobian_match_fraction_oracle(seed, c):
    rng = random.Random(seed)
    spec = jacobian_spec(rng)
    params = params_inside(rng, spec)
    assert point_at(spec, params) == \
        jacobian_oracle.slice_values(spec, params)
    assert f_jacobian(spec, params, c) == \
        jacobian_oracle.jacobian(spec, params, c)
    assert dominance_certificate(spec, params) == \
        jacobian_oracle.dominant(jacobian_oracle.jacobian(spec, params))


def kernel_slices(rng: random.Random, dims, count: int) -> list:
    """count cross sections of random index sets (n <= 8) whose kernel
    dimension lies in dims, each at a random positive center."""
    out = []
    while len(out) < count:
        lam = random_index_set(rng, size_max=16)
        if len(kernel_basis(lam)) in dims:
            a0 = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                  for _ in lam.triples]
            out.append(cross_section(lam, a0=a0))
    return out


def test_jacobian_is_a_positive_definite_gram_matrix():
    # the injectivity proof's second form: f_jacobian is W diag(1/a) W^T,
    # positive definite for every basis W of the kernel, dominant or not
    rng = random.Random(26)
    dims, undominated = set(), 0
    for spec in kernel_slices(rng, range(1, 8), 150):
        params = params_inside(rng, spec)
        jac = f_jacobian(spec, params)
        assert jac == jacobian_oracle.jacobian(spec, params)
        assert all(p > 0 for p in jacobian_oracle.ldl_pivots(jac))
        dims.add(spec.dim)
        undominated += not dominance_certificate(spec, params)
    assert dims == set(range(1, 8)) and undominated >= 50


def test_no_two_slice_points_share_a_d_orbit():
    # injectivity by brute force: grid points of the positive slice, d <= 2
    rng = random.Random(27)
    grid = [Fraction(k, 3) for k in range(-4, 5)]
    pairs = 0
    for spec in kernel_slices(rng, (1, 2), 24):
        domain = delta_domain(spec)
        points = [StructureVector(spec.lam, point_at(spec, t))
                  for t in product(grid, repeat=spec.dim)
                  if domain.contains(t)]
        for a, b in combinations(points, 2):
            assert not magnitude_orbit_equivalent(a, b)
            pairs += 1
        # the test itself tells equivalent points apart
        g = [random_rational(rng, 3) for _ in range(spec.lam.n)]
        assert magnitude_orbit_equivalent(points[0],
                                          apply_diagonal(g, points[0]))
    assert pairs >= 5000


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_vertical_line_interval_matches_fourier_motzkin(seed):
    rng = random.Random(seed)
    domain = PolytopeDomain(tuple(
        LinearInequality(random_rational(rng) if rng.random() < 0.9
                         else Fraction(0),
                         (rng.randint(-2, 2), rng.randint(-2, 2)))
        for _ in range(rng.randint(0, 6))))
    free_var = rng.randint(0, 1)
    value = random_rational(rng, 3) if rng.random() < 0.9 else Fraction(0)
    assert _vertical_line_meets_domain(domain, free_var, value) == \
        fm_line_meets_domain(domain, free_var, value)


def test_lie_center_check(mult2_plus_mult3, one_quad_mult3, one_quad_mult2):
    from liestrata import center_is_lie
    good = cross_section(mult2_plus_mult3, a0=[1, 1, 1, 1, 1, 2, 2, 1, 1])
    assert center_is_lie(good)
    # the off-ones center of the multiplicity-three fixture solves nothing:
    # the residual there is 2*2 - 1 - 1 = 2 (its solution curve passes
    # through s = -1/3 at t = 0, not through the center)
    assert not center_is_lie(cross_section(one_quad_mult3,
                                           a0=[1, 2, 1, 1, 1, 2, 1]))
    assert center_is_lie(cross_section(one_quad_mult2))


def test_display_value_exponent():
    from liestrata import display_value
    assert display_value(fr("3/2"), fr(1)) == "3/2"
    assert display_value(fr("3/2"), fr("1/2")) == "(3/2)^1/2"
    assert display_value(fr("-2"), fr("1/2")) == "-(2)^1/2"


def test_branch_solver_random_strata_against_oracle():
    # every claimed solution must satisfy the oracle; every inconsistent
    # branch must reject a spread of candidate points
    import random as random_mod
    from liestrata import brute_force_jacobiator, is_lie

    rng = random_mod.Random(55)
    solved = 0
    attempts = 0
    while solved < 60 and attempts < 4000:
        attempts += 1
        lam = random_index_set(rng, n_max=7, size_max=8)
        if not lam.triples:
            continue
        spec = cross_section(lam)
        if spec.dim > 2:
            continue
        try:
            branches = solve_branch_fixtures(spec)
        except UnsupportedShapeError:
            continue
        solved += 1
        dom = delta_domain(spec)
        for branch in branches:
            if branch.status == "points":
                for params in branch.points:
                    vec = sigma_point(spec, branch.sign, params)
                    assert brute_force_jacobiator(lam, vec)
            elif branch.status == "curve":
                for _, vec in curve_samples(spec, branch, count=5):
                    assert brute_force_jacobiator(lam, vec)
            elif branch.status == "full-domain":
                for _ in range(5):
                    params = [Fraction(rng.randint(-40, 40), 100)
                              for _ in range(spec.dim)]
                    if dom.contains(params):
                        vec = sigma_point(spec, branch.sign, params)
                        assert brute_force_jacobiator(lam, vec)
            elif branch.status == "inconsistent":
                for _ in range(5):
                    params = [Fraction(rng.randint(-40, 40), 100)
                              for _ in range(spec.dim)]
                    if dom.contains(params):
                        vec = sigma_point(spec, branch.sign, params)
                        assert not is_lie(vec)
    assert solved >= 60


# ---------------------------------------------------------------------------
# Rarely taken paths of the branch solver.  No fixture and no recorded
# stratum reaches them with its canonical cross section; each set, center
# and pair of kernel directions below came from a seeded search.
# ---------------------------------------------------------------------------


def solve_recording(monkeypatch, spec):
    """solve_branch_fixtures on spec, recording every call of the vertical
    line helper and of CurveSolution.params as (helper, caller, result).
    The caller is the function around any comprehension making the call."""
    calls = []
    for owner, name in ((cross_sections, "_solve_on_vertical_line"),
                        (CurveSolution, "params")):
        def recorded(*args, _name=name, _run=getattr(owner, name)):
            result = _run(*args)
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            calls.append((_name, frame.f_code.co_name, result))
            return result
        monkeypatch.setattr(owner, name, recorded)
    return solve_branch_fixtures(spec), calls


def lie_points_by_sign(spec, branches):
    """The points of every branch, each checked to lie in the domain and to
    give a Lie algebra by the brute-force Jacobiator."""
    domain = delta_domain(spec)
    found = {}
    for branch in branches:
        for params in branch.points:
            assert domain.contains(params)
            assert brute_force_jacobiator(
                spec.lam, sigma_point(spec, branch.sign, params))
        if branch.points:
            found[branch.sign] = branch.points
    return found


def test_univariate_equation_fixes_a_parameter(monkeypatch):
    # the first equation has no s and is quadratic in t
    lam = parse_index_set("n=6; (1,2,5) (1,2,6) (1,3,5) (1,3,6) (2,3,4) "
                          "(2,3,6) (2,4,5) (2,5,6) (3,4,5) (3,5,6)")
    spec = cross_section(lam, a0=[2, 3, 2, 1, 2, 1, 3, 1, 2, 1],
                         W=[(0, 1, 0, -1, 0, 0, -1, 0, 1, 0),
                            (8, -6, -4, 2, -2, 2, -2, 0, 0, 2)])
    branches, calls = solve_recording(monkeypatch, spec)
    from_line = {pt for name, caller, result in calls
                 if (name, caller) == ("_solve_on_vertical_line",
                                       "_solve_bivariate")
                 for pt in result}
    assert from_line == {(fr(1, 2), fr(0))}
    found = lie_points_by_sign(spec, branches)
    assert len(found) == 4
    assert set(found.values()) == {((fr(1, 2), fr(0)),)}


def test_a_pole_of_the_curve_is_met_and_skipped(monkeypatch):
    lam = parse_index_set("n=6; (1,2,4) (1,2,6) (1,3,4) (1,4,6) (2,3,4) "
                          "(2,3,5) (2,3,6) (2,4,5) (2,4,6) (2,5,6) (3,4,5) "
                          "(3,5,6)")
    spec = cross_section(lam, W=[(-1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, -1),
                                 (-2, 2, 3, -3, -1, -1, -1, 1, 2, 0, 0, 0)])
    branches, calls = solve_recording(monkeypatch, spec)
    # a root of the solved equation's coefficient den(u) of v is a
    # candidate on every branch; there the equation reads num(u) = 0 with
    # num(u) nonzero, so the candidate is skipped
    at_pole = [call for call in calls
               if call == ("params", "_solve_bivariate", None)]
    assert len(at_pole) == 8
    found = lie_points_by_sign(spec, branches)
    assert len(found) == 8
    assert set(found.values()) == {((fr(0), fr(0)),)}


def test_common_roots_stops_at_the_first_empty_intersection():
    # x - 1 and x + 2 share no root, so x^2 - 2, whose roots are
    # irrational, is never searched
    assert _common_roots([[-1, 1], [2, 1], [-2, 0, 1]]) == set()
    assert _common_roots([[], [0, 0]]) is None
    with pytest.raises(UnsupportedShapeError, match="irrational"):
        _common_roots([[-1, 1], [-2, 0, 1]])


@pytest.mark.parametrize("text, a0, W, message", [
    ("n=5; (1,2,4) (1,2,5) (1,3,5) (1,4,5) (2,3,4) (2,4,5) (3,4,5)",
     [2, 1, fr(3, 2), 4, 3, 1, 3],
     [(1, 1, -1, -1, -1, -1, 2), (-3, 2, -2, 3, 3, -2, -1)],
     "no equation is linear in either parameter"),
    ("n=5; (1,2,4) (1,2,5) (1,3,4) (1,3,5) (1,4,5) (2,3,5) (2,4,5) (3,4,5)",
     None, [(0, 2, 0, 2, -4, -4, 2, 2), (1, -1, -1, 1, 0, 0, 0, 0)],
     "solution set degenerates into several components"),
    ("n=5; (1,2,4) (1,3,4) (1,3,5) (1,4,5) (2,3,4) (2,3,5) (2,4,5) (3,4,5)",
     None, [(1, 1, 1, -3, -2, -1, 2, 1), (0, 1, -2, 1, -1, 2, -1, 0)],
     "a full line of solutions beyond fixture scale"),
])
def test_branch_shapes_beyond_fixture_scale_are_refused(monkeypatch, text,
                                                        a0, W, message):
    spec = cross_section(parse_index_set(text), a0=a0, W=W)
    with pytest.raises(UnsupportedShapeError, match=message):
        solve_recording(monkeypatch, spec)


def test_roots_outside_the_domain_leave_a_branch_inconsistent():
    lam = parse_index_set("n=5; (1,2,4) (1,2,5) (1,3,4) (1,3,5) (1,4,5) "
                          "(2,3,4) (2,3,5) (2,4,5) (3,4,5)")
    spec = cross_section(
        lam, a0=[1, fr(3, 2), fr(3, 2), 1, 4, 2, 3, 2, fr(2, 3)],
        W=[(0, 0, -2, 2, 0, 2, -2, 0, 0)])
    branches = solve_branch_fixtures(spec)
    notes = [b.note for b in branches if b.status == "inconsistent"]
    assert notes.count("no admissible roots") == 4
    found = lie_points_by_sign(spec, branches)
    assert set(found.values()) == {((fr(-17, 36),),), ((fr(-13, 36),),)}


def test_zero_dimensional_slice_off_the_variety(one_quad_mult2):
    spec = cross_section(one_quad_mult2, a0=[1, 2, 1, 1, 1, 1], W=[])
    branches = solve_branch_fixtures(spec)
    assert [(b.status, b.note) for b in branches] == [
        ("inconsistent", "nonzero constant residual"),
        ("inconsistent", "all terms share one sign")]
    for branch in branches:
        assert not brute_force_jacobiator(
            one_quad_mult2, sigma_point(spec, branch.sign, ()))


def test_power_invariance_of_magnitude_test():
    rng = random.Random(54)
    from liestrata import magnitude_orbit_equivalent
    from liestrata import structure_vector as sv
    from conftest import random_structure_vector
    checked = 0
    while checked < 100:
        lam = random_index_set(rng)
        if not lam.triples:
            continue
        checked += 1
        a = random_structure_vector(rng, lam)
        b = random_structure_vector(rng, lam)
        a2 = sv(lam, [v * v for v in a.values])
        b2 = sv(lam, [v * v for v in b.values])
        assert magnitude_orbit_equivalent(a, b) == \
            magnitude_orbit_equivalent(a2, b2)


def test_inequality_text_leaves_out_a_zero_constant():
    # delta_domain's constants are center coordinates, so never 0; only a
    # hand-built inequality meets this
    assert LinearInequality(Fraction(0), (1,)).render() == "s > 0"
    assert LinearInequality(Fraction(0), (0, 0)).render() == "0 > 0"
    assert LinearInequality(Fraction(-1, 2), (0, -2, 1, 3)).render() == \
        "-1/2 - 2*t2 + t3 + 3*t4 > 0"
