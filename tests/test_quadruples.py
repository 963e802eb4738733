import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from liestrata import (ModeError, NotAlignedError, Triple,
                       UnknownQuadrupleError, aligned, classify,
                       common_triples, lambda_subspace,
                       lambda_subspace_vectors, left_null_basis,
                       null_space_spanning, pair_sign, quadruple_of,
                       quadruple_table, root_matrix, w_vector)
from liestrata import sweep
from liestrata.linalg import root_vector, transpose
from liestrata.quadruples import root_dot
from liestrata.triples import IndexSet

import gf2_oracle
from conftest import random_index_set
from rref_oracle import rref


def aligned_pair_root_sum(lam, pair):
    """Sum of the pair's root vectors; equals e_q1 + e_q2 + e_q3 - e_q4."""
    y1 = root_vector(lam.triples[pair.p], lam.n)
    y2 = root_vector(lam.triples[pair.r], lam.n)
    return tuple(a + b for a, b in zip(y1, y2))


def test_aligned_examples():
    assert not aligned(Triple(1, 2, 3), Triple(1, 3, 4))   # dot 0
    assert aligned(Triple(1, 2, 4), Triple(3, 4, 7))
    assert not aligned(Triple(1, 2, 3), Triple(1, 2, 4))   # dot 2
    assert not aligned(Triple(1, 2, 4), Triple(2, 4, 6))   # shares two indices


def test_aligned_rejects_degenerate():
    with pytest.raises(NotAlignedError):
        aligned(Triple(1, 2, 3), Triple(1, 2, 3))
    with pytest.raises(ModeError):
        aligned(Triple(1, 2, 2), Triple(1, 2, 3))


def test_quadruple_of_examples():
    assert quadruple_of(Triple(1, 2, 4), Triple(3, 4, 7)) == (1, 2, 3, 7)
    assert quadruple_of(Triple(1, 4, 6), Triple(2, 6, 8)) == (1, 2, 4, 8)
    assert quadruple_of(Triple(1, 2, 3), Triple(3, 4, 5)) == (1, 2, 4, 5)
    with pytest.raises(NotAlignedError):
        quadruple_of(Triple(1, 2, 3), Triple(1, 3, 4))


def test_pair_sign_examples():
    assert pair_sign(Triple(1, 2, 4), Triple(3, 4, 7)) == -1
    assert pair_sign(Triple(1, 3, 5), Triple(2, 5, 7)) == 1
    assert pair_sign(Triple(1, 2, 3), Triple(3, 4, 7)) == 1   # shared first
    assert pair_sign(Triple(1, 5, 6), Triple(2, 3, 5)) == -1  # shared below both
    with pytest.raises(NotAlignedError):
        pair_sign(Triple(1, 2, 4), Triple(2, 4, 6))


def test_pair_functions_symmetric():
    t1, t2 = Triple(1, 2, 4), Triple(3, 4, 7)
    assert quadruple_of(t1, t2) == quadruple_of(t2, t1)
    assert pair_sign(t1, t2) == pair_sign(t2, t1)


def test_quadruple_table_fixtures(mult2_plus_mult3, filiform4, one_quad_mult3):
    table = quadruple_table(mult2_plus_mult3)
    assert table.multiplicities() == {(1, 2, 3, 6): 2, (1, 2, 4, 7): 3}
    assert not quadruple_table(filiform4).pairs
    assert quadruple_table(one_quad_mult3).multiplicities() == {(1, 2, 3, 7): 3}


def test_quadruple_table_pair_signs(mult2_plus_mult3):
    table = quadruple_table(mult2_plus_mult3)
    got = {(ap.p + 1, ap.r + 1): ap.sign
           for q in table.quadruples for ap in table.pairs[q]}
    assert got == {(2, 7): 1, (4, 6): -1,
                   (1, 9): 1, (3, 8): 1, (5, 7): -1}


def test_quadruple_table_requires_theta():
    from liestrata import validate_index_set
    lam = validate_index_set([(1, 2, 1)], 3, mode="upsilon")
    with pytest.raises(ModeError):
        quadruple_table(lam)


def test_common_triples(two_quads_mult2, mult2_plus_mult3):
    table = quadruple_table(two_quads_mult2)
    shared = common_triples((1, 2, 3, 7), (1, 2, 4, 8), table)
    assert shared == [Triple(2, 4, 7)]
    table2 = quadruple_table(mult2_plus_mult3)
    # brute force over the five pairs: only (2,4,6) participates for both
    participant_sets = {}
    for q in table2.quadruples:
        participant_sets[q] = {mult2_plus_mult3.triples[pos]
                               for ap in table2.pairs[q]
                               for pos in (ap.p, ap.r)}
    expected = sorted(participant_sets[(1, 2, 3, 6)]
                      & participant_sets[(1, 2, 4, 7)])
    assert common_triples((1, 2, 3, 6), (1, 2, 4, 7), table2) == expected
    assert expected == [Triple(2, 4, 6)]
    # degenerate case: a quadruple shares every participant with itself
    got = common_triples((1, 2, 3, 6), (1, 2, 3, 6), table2)
    assert set(got) == participant_sets[(1, 2, 3, 6)]
    with pytest.raises(UnknownQuadrupleError):
        common_triples((1, 2, 3, 4), (1, 2, 3, 6), table2)


def test_w_vector_identities():
    assert w_vector(0, 1, 2, 3, 5) == w_vector(1, 0, 2, 3, 5)
    assert w_vector(0, 1, 2, 3, 5) == w_vector(0, 1, 3, 2, 5)
    assert w_vector(0, 1, 2, 3, 5) == \
        tuple(-x for x in w_vector(2, 3, 0, 1, 5))


def test_lambda_subspace_fixtures(mult2_plus_mult3, one_quad_non_spanning,
                                  filiform4):
    assert len(lambda_subspace(mult2_plus_mult3)) == 3
    assert null_space_spanning(mult2_plus_mult3)
    assert len(lambda_subspace(one_quad_non_spanning)) == 1
    kernel = left_null_basis(root_matrix(one_quad_non_spanning))
    assert len(kernel) == 2
    assert not null_space_spanning(one_quad_non_spanning)
    assert lambda_subspace(filiform4) == ()
    assert null_space_spanning(filiform4)  # trivial kernel


def classify_inputs(monkeypatch):
    """The index set of every classify call of the census sweeps at n <= 5
    and at n = 6 up to size 6, rebuilt so that nothing is memoized."""
    seen = []

    def recording(lam):
        seen.append((lam.n, lam.triples))
        return classify(lam)
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "classify", recording)
        for n, max_size in ((3, None), (4, None), (5, None), (6, 6)):
            for _ in sweep.sweep_strata(n, max_size=max_size):
                pass
    return [IndexSet(n, triples) for n, triples in seen]


def test_null_space_spanning_matches_rref_ranks(monkeypatch):
    # the oracle: ranks of Y and of the w-vectors by Fraction rref, with
    # no GF(2) and no Bareiss; the GF(2) ranks (row-wise oracle) only sort
    # the inputs by whether the mod-2 certificate decides them
    rng = random.Random(25)
    inputs = classify_inputs(monkeypatch)
    assert len(inputs) == 1930  # 96 at n = 5, 1 834 at n = 6
    inputs += [random_index_set(rng) for _ in range(3000)]
    fallbacks = Counter()
    for lam in inputs:
        m, y, ws = len(lam), root_matrix(lam), lambda_subspace_vectors(lam)
        spanning = len(rref(ws)[1]) == m - len(rref(y)[1])
        assert null_space_spanning(lam) == spanning, lam
        if gf2_oracle.rank(ws, m) < m - gf2_oracle.rank(y, lam.n):
            fallbacks[spanning] += 1
    assert fallbacks[True] and fallbacks[False], fallbacks


def test_w_vector_cycle_relation(mult2_plus_mult3):
    # the three pair-combinations of the multiplicity-3 quadruple telescope
    m = len(mult2_plus_mult3)
    w1 = w_vector(3, 5, 1, 6, m)
    w2 = w_vector(4, 6, 2, 7, m)
    w3 = w_vector(2, 7, 0, 8, m)
    w4 = w_vector(0, 8, 4, 6, m)
    assert tuple(a + b + c for a, b, c in zip(w2, w3, w4)) == (0,) * m
    from liestrata.linalg import rank
    assert rank([w1, w2, w3, w4]) == 3
    produced = lambda_subspace_vectors(mult2_plus_mult3)
    for w in (w1, w2, w3, w4):
        neg = tuple(-x for x in w)
        assert w in produced or neg in produced


def test_classification_fixtures(one_quad_mult2, one_quad_mult3,
                                 mult2_plus_mult3, filiform4,
                                 one_quad_non_spanning, two_quads_mult2):
    assert classify(one_quad_mult2) == "finite-1q2"
    assert classify(one_quad_mult3) == "onedim-1q3"
    assert classify(mult2_plus_mult3) == "onedim-1q3+1q2-shared"
    assert classify(filiform4) == "unobstructed"
    assert classify(one_quad_non_spanning) == "unclassified"
    assert classify(two_quads_mult2) == "onedim-2q2-shared"


def test_classification_empty():
    # two triples aligned once: a single quadruple of multiplicity one
    from liestrata import validate_index_set
    lam = validate_index_set([(1, 2, 4), (3, 4, 7)], 7)
    assert classify(lam) == "empty"


def test_subspace_within_kernel_random():
    rng = random.Random(21)
    for _ in range(1000):
        lam = random_index_set(rng)
        y = root_matrix(lam)
        yt = transpose(y)
        for w in lambda_subspace_vectors(lam):
            assert all(sum(r[c] * w[c] for c in range(len(w))) == 0
                       for r in yt)


def test_aligned_pair_root_sum_random():
    rng = random.Random(22)
    seen = 0
    while seen < 200:
        lam = random_index_set(rng)
        table = quadruple_table(lam)
        for q in table.quadruples:
            for ap in table.pairs[q]:
                seen += 1
                total = aligned_pair_root_sum(lam, ap)
                expect = [0] * lam.n
                expect[q[0] - 1] += 1
                expect[q[1] - 1] += 1
                expect[q[2] - 1] += 1
                expect[q[3] - 1] -= 1
                assert total == tuple(expect)


def test_unreachable_patterns_never_occur():
    # the shared index r cannot sit first in one triple while exceeding the
    # partner's entries: scan every aligned pair in a whole dimension
    from liestrata import enumerate_theta
    for t1, t2 in combinations(enumerate_theta(7), 2):
        if root_dot(t1, t2) != -1:
            continue
        low, high = (t1, t2) if t1.k in (t2.i, t2.j) else (t2, t1)
        if high.i in set(low):
            # shared element leads the second triple: the disjoint pattern
            assert high.i == low.k
            assert pair_sign(t1, t2) == 1


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10_000))
def test_pair_sign_matches_case_table(seed):
    rng = random.Random(seed)
    lam = random_index_set(rng, n_max=8, size_max=8)
    table = quadruple_table(lam)
    for q in table.quadruples:
        q1, q2, q3, q4 = q
        for ap in table.pairs[q]:
            pair = {lam.triples[ap.p], lam.triples[ap.r]}
            shared = set(lam.triples[ap.p]) & set(lam.triples[ap.r])
            r = shared.pop()
            if pair == {Triple(q1, q2, r), Triple(r, q3, q4)}:
                assert ap.sign == 1
            elif pair == {Triple(q1, q2, r), Triple(q3, r, q4)}:
                assert ap.sign == -1
            elif pair == {Triple(q1, q3, r), Triple(q2, r, q4)}:
                assert ap.sign == 1
            elif pair == {Triple(q2, q3, r), Triple(q1, r, q4)}:
                assert ap.sign == -1
            else:
                raise AssertionError(f"unexpected pattern {pair} for {q}")
