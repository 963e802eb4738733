from fractions import Fraction

import pytest

from liestrata import UnsupportedShapeError
from liestrata.poly import ROOT_COEFF_CAP, format_sum, rational_roots


def test_rational_roots_at_the_coefficient_cap():
    # x - cap: constant term exactly at the cap is still searched
    assert rational_roots([Fraction(-ROOT_COEFF_CAP), Fraction(1)]) == \
        [Fraction(ROOT_COEFF_CAP)]
    # (2x - 1)(x + 3) with a scale the primitive form divides out
    assert rational_roots([Fraction(-3 * 10**9), Fraction(5 * 10**9),
                           Fraction(2 * 10**9)]) == [-3, Fraction(1, 2)]
    # roots at zero are peeled before the cap applies
    assert rational_roots([0, 0, Fraction(-4), Fraction(1)]) == [0, 4]


@pytest.mark.parametrize("coeffs", [
    [-(ROOT_COEFF_CAP + 1), 1],
    [1, 0, ROOT_COEFF_CAP + 1],
    [Fraction(1, 10**7), 1],
    [10**40 - 1, -(10**40 + 3)],
])
def test_rational_roots_refuses_coefficients_above_the_cap(coeffs):
    with pytest.raises(UnsupportedShapeError, match="too large"):
        rational_roots([Fraction(c) for c in coeffs])


# Ascending coefficients, and the roots or the refusal once the rational
# roots are deflated: a quadratic left over with no real roots is fine, any
# other residual factor is refused rather than approximated.
@pytest.mark.parametrize("coeffs, result", [
    pytest.param([1, 0, 1], [], id="x^2 + 1"),
    pytest.param([-1, 1, -1, 1], [1], id="(x - 1)(x^2 + 1)"),
    pytest.param([-2, 0, 1], "irrational real roots beyond fixture scale",
                 id="x^2 - 2"),
    pytest.param([-2, 0, 0, 1], "residual degree 3 factor beyond fixture scale",
                 id="x^3 - 2"),
    pytest.param([1, 0, 2, 0, 1],
                 "residual degree 4 factor beyond fixture scale",
                 id="(x^2 + 1)^2"),
])
def test_rational_roots_residual_factors(coeffs, result):
    coeffs = [Fraction(c) for c in coeffs]
    if isinstance(result, list):
        assert rational_roots(coeffs) == result
    else:
        with pytest.raises(UnsupportedShapeError) as exc:
            rational_roots(coeffs)
        assert str(exc.value) == result


def test_format_sum_drops_zeros_and_unit_coefficients():
    assert format_sum([(0, "s"), (1, "t"), (-1, "u")]) == "t - u"
    assert format_sum([(2, ""), (Fraction(-3, 2), "s")]) == "2 - 3/2*s"
    assert format_sum([(-1, "s"), (Fraction(3, 2), "t")]) == "-s + 3/2*t"
    assert format_sum([(Fraction(-1, 2), ""), (-7, "t^2")]) == \
        "-1/2 - 7*t^2"
    # an empty name is a constant: its value is written even when it is 1
    assert format_sum([(1, ""), (-1, "")]) == "1 - 1"
    assert format_sum([(0, ""), (-4, "s")]) == "-4*s"


@pytest.mark.parametrize("terms", [[], [(0, "s"), (Fraction(0), "")]])
def test_format_sum_without_terms_is_zero(terms):
    assert format_sum(terms) == "0"
