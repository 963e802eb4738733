"""Shared fixtures: the recurring index sets and random generators."""

from contextlib import contextmanager
from fractions import Fraction
import random
import signal
import time

import pytest

from liestrata import enumerate_theta, parse_index_set, quadruple_table, \
    structure_vector, validate_index_set

# Filiform algebra in dimension 4: two triples, no aligned pairs.
FILIFORM4 = "n=4; (1,2,3) (1,3,4)"
# Heisenberg algebra in dimension 5: two triples meeting only in the center.
HEISENBERG5 = "n=5; (1,2,5) (3,4,5)"
# Six triples in dimension 7 with a single quadruple of multiplicity two.
ONE_QUAD_MULT2 = "n=7; (1,2,4) (1,3,5) (1,5,6) (2,4,6) (2,5,7) (3,4,7)"
# Seven triples in dimension 7 with a single quadruple of multiplicity three.
ONE_QUAD_MULT3 = "n=7; (1,2,4) (1,3,5) (1,4,6) (1,6,7) (2,3,6) (2,5,7) (3,4,7)"
# Nine triples in dimension 7: multiplicities 2 and 3 with one common triple.
MULT2_PLUS_MULT3 = ("n=7; (1,2,3) (1,3,4) (1,4,5) (1,5,6) (1,6,7) "
                    "(2,3,5) (2,4,6) (2,5,7) (3,4,7)")
# Eight triples in dimension 8: two quadruples of multiplicity two.
TWO_QUADS_MULT2 = "n=8; (1,3,4) (1,4,6) (1,6,7) (1,7,8) (2,3,6) (2,4,7) (2,6,8) (3,5,8)"
# Nine triples in dimension 8 whose single w-vector misses half the kernel.
ONE_QUAD_NON_SPANNING = ("n=8; (1,2,4) (1,3,5) (1,4,6) (1,5,7) (1,7,8) "
                         "(2,3,6) (2,4,7) (2,6,8) (3,5,8)")

# Thirteen triples in dimension 6 with a seven-dimensional kernel: a
# cross section in 7 parameters cut out by 13 irredundant inequalities.
DIM7 = ("n=6; (1,2,3) (1,2,4) (1,2,6) (1,3,4) (1,4,5) (1,5,6) (2,3,6) "
        "(2,4,5) (2,5,6) (3,4,5) (3,4,6) (3,5,6) (4,5,6)")


@pytest.fixture
def filiform4():
    return parse_index_set(FILIFORM4)


@pytest.fixture
def heisenberg5():
    return parse_index_set(HEISENBERG5)


@pytest.fixture
def one_quad_mult2():
    return parse_index_set(ONE_QUAD_MULT2)


@pytest.fixture
def one_quad_mult3():
    return parse_index_set(ONE_QUAD_MULT3)


@pytest.fixture
def mult2_plus_mult3():
    return parse_index_set(MULT2_PLUS_MULT3)


@pytest.fixture
def two_quads_mult2():
    return parse_index_set(TWO_QUADS_MULT2)


@pytest.fixture
def one_quad_non_spanning():
    return parse_index_set(ONE_QUAD_NON_SPANNING)


def random_index_set(rng: random.Random, n_max: int = 8, size_max: int = 10):
    n = rng.randint(3, n_max)
    theta = enumerate_theta(n)
    size = rng.randint(0, min(size_max, len(theta)))
    return validate_index_set(rng.sample(theta, size), n)


def multiplicities(lam) -> dict:
    """Each quadruple of lam's table with its number of aligned pairs."""
    return {q: len(pairs) for q, pairs in quadruple_table(lam).items()}


def random_rational(rng: random.Random, bound: int = 9) -> Fraction:
    num = rng.choice([x for x in range(-bound, bound + 1) if x])
    return Fraction(num, rng.randint(1, bound))


def random_structure_vector(rng: random.Random, lam, bound: int = 9):
    return structure_vector(lam,
                            [random_rational(rng, bound) for _ in lam.triples])


def random_nonzero_diag(rng: random.Random, n: int, bound: int = 9):
    return [random_rational(rng, bound) for _ in range(n)]


class Overrun(BaseException):
    """Raised by deadline.  Not an Exception: hypothesis then reports the
    test at once instead of shrinking, which would run the hanging example
    again and again, and no `except Exception` under test swallows it."""


@contextmanager
def deadline(seconds):
    """Raise Overrun in this process if the block runs past seconds (a
    forked worker does not inherit the alarm).  An enclosing deadline's
    alarm is set again, less the time spent, when the block ends."""
    def expire(signum, frame):
        raise Overrun(f"still running after {seconds} s, in "
                      f"{frame.f_code.co_qualname}")

    previous = signal.signal(signal.SIGALRM, expire)
    start, outer = time.monotonic(), signal.alarm(seconds)
    try:
        yield
    except Overrun as exc:
        # raised afresh, since the interrupted frame may have no line
        # number (Python 3.11), which pytest fails to report
        raise Overrun(*exc.args) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.alarm(max(1, outer - int(time.monotonic() - start)))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Every test fails after 60 s instead of hanging the suite; the
    slowest takes about 2 s.  A pivot bug can make the redundancy LP loop
    forever."""
    with deadline(60):
        return (yield)
