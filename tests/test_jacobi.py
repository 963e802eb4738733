import random
from fractions import Fraction
from itertools import combinations

from liestrata import (aligned, brute_force_jacobiator, evaluate_jacobi,
                       format_system, is_lie, jacobi_system,
                       obstruction_status, quadruple_of, quadruple_table,
                       structure_vector, validate_index_set)
from liestrata.jacobi import _Bracket

from conftest import multiplicities, random_index_set, random_structure_vector


def jacobiator_coordinate(lam, a, q):
    """The q4-th coordinate of the Jacobiator at (x_q1, x_q2, x_q3)."""
    return _Bracket(a).jacobiator(q[0], q[1], q[2]).get(q[3], Fraction(0))


def same_equation(pairs, lam, expected):
    """Equality as a signed term set, up to one overall sign."""
    got = set()
    for ap in pairs:
        a, b = sorted((tuple(lam.triples[ap.p]), tuple(lam.triples[ap.r])))
        got.add((ap.sign, a, b))
    want = set()
    for sign, a, b in expected:
        x, y = sorted((tuple(a), tuple(b)))
        want.add((sign, x, y))
    return got == want or got == {(-s, a, b) for s, a, b in want}


def test_system_one_quad_mult2(one_quad_mult2):
    assert format_system(one_quad_mult2) == [
        "(1,2,3,7): -a[1,2,4]*a[3,4,7] + a[1,3,5]*a[2,5,7] = 0"]


def test_system_one_quad_mult3(one_quad_mult3):
    sys_ = jacobi_system(one_quad_mult3)
    assert len(sys_) == 1
    expected = [(+1, (1, 3, 5), (2, 5, 7)),
                (-1, (2, 3, 6), (1, 6, 7)),
                (-1, (1, 2, 4), (3, 4, 7))]
    assert same_equation(list(sys_.values())[0], one_quad_mult3, expected)


def test_system_mult2_plus_mult3(mult2_plus_mult3):
    sys_ = jacobi_system(mult2_plus_mult3)
    assert len(sys_) == 2
    equations = list(sys_.values())
    eq1 = [(+1, (1, 5, 6), (2, 3, 5)), (-1, (1, 3, 4), (2, 4, 6))]
    assert same_equation(equations[0], mult2_plus_mult3, eq1)
    eq2 = [(+1, (1, 6, 7), (2, 4, 6)), (-1, (1, 4, 5), (2, 5, 7)),
           (-1, (1, 2, 3), (3, 4, 7))]
    assert same_equation(equations[1], mult2_plus_mult3, eq2)


def walk_order(lam):
    """Quadruples in the order the (p, r) walk over aligned pairs meets them."""
    return list(dict.fromkeys(quadruple_of(s, t)
                              for s, t in combinations(lam.triples, 2)
                              if aligned(s, t)))


def test_system_is_the_sorted_quadruple_table():
    # the walk meets (1,2,4,5) at positions (0, 2) before (1,2,3,5) at (1, 2)
    lam = validate_index_set([(1, 2, 3), (1, 2, 4), (3, 4, 5)], 5)
    assert walk_order(lam) == [(1, 2, 4, 5), (1, 2, 3, 5)]
    table = quadruple_table(lam)
    assert type(table) is dict
    assert list(table) == [(1, 2, 3, 5), (1, 2, 4, 5)]
    assert tuple(table) == ((1, 2, 3, 5), (1, 2, 4, 5))
    assert jacobi_system(lam) is table
    assert format_system(lam) == ["(1,2,3,5): -a[1,2,4]*a[3,4,5] = 0",
                                  "(1,2,4,5): a[1,2,3]*a[3,4,5] = 0"]
    rng = random.Random(34)
    out_of_walk_order = 0
    for _ in range(300):
        lam = random_index_set(rng)
        pairs = quadruple_table(lam)
        walk = walk_order(lam)
        out_of_walk_order += walk != sorted(walk)
        assert list(pairs) == sorted(walk)
        assert jacobi_system(lam) is pairs
        assert [line[:line.index(":")] for line in format_system(lam)] == \
            ["({},{},{},{})".format(*q) for q in sorted(walk)]
    assert out_of_walk_order >= 50


def test_equation_term_counts_match_multiplicities(mult2_plus_mult3):
    mults = multiplicities(mult2_plus_mult3)
    sys_ = jacobi_system(mult2_plus_mult3)
    for q, pairs in sys_.items():
        assert len(pairs) == mults[q]


def test_evaluate_all_ones_two_quads(two_quads_mult2):
    a = structure_vector(two_quads_mult2, [1] * 8)
    assert evaluate_jacobi(a) == (Fraction(0), Fraction(0))
    assert brute_force_jacobiator(two_quads_mult2, a)


def test_evaluate_off_slice_point(one_quad_mult2):
    # slice values at s = 1/2 with the sixth entry matching the first
    s = Fraction(1, 2)
    a = structure_vector(one_quad_mult2,
                         [1 + s, 1 - s, 1, 1, 1 - s, 1 + s])
    assert evaluate_jacobi(a) == (Fraction(-2),)


def test_evaluate_empty_table(filiform4):
    sys_ = jacobi_system(filiform4)
    assert len(sys_) == 0
    a = structure_vector(filiform4, [3, "-7/2"])
    assert evaluate_jacobi(a) == ()
    assert is_lie(a)


def test_obstruction_statuses(filiform4, one_quad_mult2):
    assert obstruction_status(filiform4) == "automatic"
    assert obstruction_status(one_quad_mult2) == "nontrivial"
    lam = validate_index_set([(1, 2, 4), (3, 4, 7)], 7)
    assert obstruction_status(lam) == "empty"


def find_single_mult_one_set():
    """Brute-force a three-triple set with exactly one quadruple, mult one."""
    from liestrata import enumerate_theta
    for combo in combinations(enumerate_theta(6), 3):
        lam = validate_index_set(combo, 6)
        table = quadruple_table(lam)
        if len(table) == 1 and list(multiplicities(lam).values()) == [1]:
            return lam
    raise AssertionError("no candidate found")


def test_single_pair_set_is_empty_status():
    lam = find_single_mult_one_set()
    assert obstruction_status(lam) == "empty"


def test_oracle_examples(filiform4, two_quads_mult2, one_quad_mult2):
    a = structure_vector(filiform4, [1, 1])
    assert brute_force_jacobiator(filiform4, a)
    ones = structure_vector(two_quads_mult2, [1] * 8)
    assert brute_force_jacobiator(two_quads_mult2, ones)
    tweaked = structure_vector(one_quad_mult2, [2, 1, 1, 1, 1, 1])
    assert not brute_force_jacobiator(one_quad_mult2, tweaked)


def test_oracle_equivalence_random():
    rng = random.Random(31)
    for _ in range(400):
        lam = random_index_set(rng)
        a = random_structure_vector(rng, lam)
        assert is_lie(a) == brute_force_jacobiator(lam, a)


def test_residuals_match_jacobiator_coordinates():
    rng = random.Random(32)
    seen = 0
    while seen < 200:
        lam = random_index_set(rng)
        sys_ = jacobi_system(lam)
        if not sys_:
            continue
        a = random_structure_vector(rng, lam)
        residuals = evaluate_jacobi(a)
        for q, res in zip(sys_, residuals):
            seen += 1
            coord = jacobiator_coordinate(lam, a, q)
            assert res == coord or res == -coord


def test_empty_status_never_lie():
    rng = random.Random(33)
    found = 0
    while found < 50:
        lam = random_index_set(rng)
        if obstruction_status(lam) != "empty":
            continue
        found += 1
        for _ in range(20):
            a = random_structure_vector(rng, lam)
            assert not brute_force_jacobiator(lam, a)


def test_automatic_status_always_lie():
    rng = random.Random(34)
    found = 0
    while found < 50:
        lam = random_index_set(rng)
        if obstruction_status(lam) != "automatic":
            continue
        found += 1
        for _ in range(20):
            a = random_structure_vector(rng, lam)
            assert brute_force_jacobiator(lam, a)
