import math
import random

import pytest
from hypothesis import given, strategies as st

from liestrata import (DuplicateTripleError, IndexOutOfRangeError,
                       IndexSet, OrderViolationError, StructureVector, Triple,
                       enumerate_theta, parse_index_set, sign_vector,
                       structure_vector, validate_index_set)
from liestrata.triples import index_set_document

from conftest import random_structure_vector


def test_enumerate_theta_small():
    assert enumerate_theta(3) == [Triple(1, 2, 3)]
    assert enumerate_theta(4) == [Triple(1, 2, 3), Triple(1, 2, 4),
                                  Triple(1, 3, 4), Triple(2, 3, 4)]
    assert len(enumerate_theta(7)) == 35


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_theta_counts(n):
    assert len(enumerate_theta(n)) == math.comb(n, 3)


def test_enumerate_theta_sorted():
    for n in (5, 8):
        ts = enumerate_theta(n)
        assert ts == sorted(ts)


def test_validate_accepts_known_sets():
    lam = validate_index_set([(1, 2, 3), (1, 3, 4)], 4)
    assert lam.triples == (Triple(1, 2, 3), Triple(1, 3, 4))
    lam = validate_index_set([(3, 4, 5), (1, 2, 5)], 5)
    assert lam.triples == (Triple(1, 2, 5), Triple(3, 4, 5))


def test_validate_rejects_order_violation():
    with pytest.raises(OrderViolationError):
        validate_index_set([(2, 1, 3)], 3)
    with pytest.raises(OrderViolationError):
        validate_index_set([(1, 3, 2)], 3)


def test_validate_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        validate_index_set([(1, 2, 5)], 4)
    with pytest.raises(IndexOutOfRangeError):
        validate_index_set([(0, 1, 2)], 4)


def test_validate_rejects_duplicates():
    with pytest.raises(DuplicateTripleError):
        validate_index_set([(1, 2, 3), (1, 2, 3)], 4)


def test_index_set_checks_its_neighbours_before_its_mode():
    t, u = Triple(1, 2, 3), Triple(1, 2, 4)
    for mode in ("theta", "upsilon", "bogus"):
        with pytest.raises(DuplicateTripleError,
                           match=r"^duplicate triple \(1,2,4\)$"):
            IndexSet(4, (t, u, u), mode)
        with pytest.raises(OrderViolationError,
                           match="^triples must be strictly ascending$"):
            IndexSet(4, (u, t), mode)
    with pytest.raises(DuplicateTripleError,
                       match=r"^duplicate triple \(1,2,3\)$"):
        validate_index_set([(1, 2, 4), (1, 2, 3), (1, 2, 3)], 4, "bogus")


def test_upsilon_mode_allows_small_k():
    lam = validate_index_set([(1, 2, 1), (1, 2, 2)], 3, mode="upsilon")
    assert len(lam) == 2
    with pytest.raises(OrderViolationError):
        validate_index_set([(1, 2, 1)], 3, mode="theta")


def test_validate_idempotent():
    lam = validate_index_set([(2, 3, 4), (1, 2, 3)], 5)
    again = validate_index_set(lam.triples, lam.n, lam.mode)
    assert again == lam


def test_sign_vector_examples():
    lam = validate_index_set([(1, 2, 3), (1, 3, 4)], 4)
    assert sign_vector(structure_vector(lam, [1, 1])) == (0, 0)
    assert sign_vector(structure_vector(lam, [1, -1])) == (0, 1)
    assert sign_vector(structure_vector(lam, ["-3/2", 5])) == (1, 0)


def test_structure_vector_rejects_zero():
    lam = validate_index_set([(1, 2, 3)], 3)
    with pytest.raises(Exception):
        structure_vector(lam, [0])


@given(st.integers(min_value=0, max_value=4), st.data())
def test_sign_vector_flip(seed, data):
    rng = random.Random(seed)
    lam = validate_index_set([(1, 2, 3), (1, 2, 4), (1, 3, 4)], 4)
    a = random_structure_vector(rng, lam)
    pos = data.draw(st.integers(min_value=0, max_value=len(lam) - 1))
    flipped = StructureVector(
        a.lam, tuple(-v if i == pos else v for i, v in enumerate(a.values)))
    diff = [x ^ y for x, y in zip(sign_vector(a), sign_vector(flipped))]
    assert diff == [1 if i == pos else 0 for i in range(len(lam))]


def test_parse_text_and_json_roundtrip():
    lam = parse_index_set("n=7; (1,2,4) (1,3,5) (1,5,6) (2,4,6) (2,5,7) (3,4,7)")
    assert lam.n == 7 and len(lam) == 6
    again = parse_index_set(str(lam))
    assert again == lam
    import json
    doc = json.dumps(index_set_document(lam))
    assert parse_index_set(doc) == lam


def test_parse_upsilon_mode():
    lam = parse_index_set("n=3; mode=upsilon; (1,2,1) (1,3,3)")
    assert lam.mode == "upsilon"
    assert str(lam).startswith("n=3; mode=upsilon;")
