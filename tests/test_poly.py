"""Exact polynomial arithmetic and truncated series division."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from magiccount.poly import (
    Poly,
    ZeroConstantTerm,
    coeff_to_str,
    interpolate,
    poly_to_json,
    series_poly_product,
    series_quotient,
)

small_coeffs = st.integers(min_value=-20, max_value=20)
polys = st.lists(small_coeffs, min_size=0, max_size=7).map(Poly)


def test_addition():
    assert Poly((1, -1)) + Poly((1, -2, -1)) == Poly((2, -3, -1))


def test_multiplicative_identity():
    assert Poly((1, -1)) * Poly((1,)) == Poly((1, -1))


def test_difference_of_squares():
    assert Poly((1, 1)) * Poly((1, -1)) == Poly((1, 0, -1))


def test_trailing_zeros_are_stripped():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0, 0)).is_zero()
    assert Poly().degree == -1


def test_integer_valued_fraction_coefficient_becomes_int():
    c = Poly((Fraction(4, 2),)).coeffs[0]
    assert c == 2 and type(c) is int


def test_non_integer_fraction_coefficient_stays_a_fraction():
    c = Poly((Fraction(1, 2),)).coeffs[0]
    assert c == Fraction(1, 2) and type(c) is Fraction


def test_bool_coefficients_are_kept_as_given():
    p = Poly((True, 2, False))
    assert p.coeffs == (True, 2) and type(p.coeffs[0]) is bool
    assert Poly((False,)).is_zero()
    assert p * Poly((1, 1)) == Poly((1, 3, 2))


def test_negate_variable_flips_odd_terms():
    assert Poly((1, -2, -1)).negate_variable() == Poly((1, 2, -1))
    assert Poly().negate_variable() == Poly()
    assert Poly((1, -6, -7, 2, 1)).negate_variable() == Poly((1, 6, -7, -2, 1))


def test_derivative():
    assert Poly((1, -2, -1)).derivative() == Poly((-2, -2))
    assert Poly((5,)).derivative() == Poly()
    assert Poly((1, -4, -2, 1)).derivative() == Poly((-4, -4, 3))


def test_evaluation_is_exact():
    p = Poly((1, -2, -1))
    assert p(0) == 1
    assert p(Fraction(1, 2)) == Fraction(-1, 4)


def test_series_quotient_line_generating_function():
    # long division of 2 / (1 - 2y - y^2); constant term is the s+1 convention at s=1
    assert series_quotient(Poly((2,)), Poly((1, -2, -1)), 3) == [2, 4, 10, 24]


def test_series_quotient_geometric():
    assert series_quotient(Poly((1,)), Poly((1, -1)), 4) == [1, 1, 1, 1, 1]


def test_series_quotient_cycle_closed_form_constant_term():
    # (t^2+t+1) / ((1+t)(1-t)^4) starts at the single all-zero labeling
    den = Poly((1, 1)) * Poly((1, -1)) ** 4
    assert series_quotient(Poly((1, 1, 1)), den, 0) == [1]


def test_series_quotient_rejects_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        series_quotient(Poly((1,)), Poly((0, 1)), 3)


def test_interpolate_recovers_square():
    assert interpolate([(0, 0), (1, 1), (2, 4), (3, 9)]) == Poly((0, 0, 1))


def test_interpolate_rejects_repeated_points():
    with pytest.raises(ValueError):
        interpolate([(0, 1), (0, 2)])


def test_json_coefficients_are_decimal_strings():
    assert poly_to_json(Poly((1, -6, 0, 2))) == ["1", "-6", "0", "2"]


@given(polys)
def test_negate_variable_is_an_involution(p):
    assert p.negate_variable().negate_variable() == p


@given(polys, polys)
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


@given(polys, polys)
def test_add_and_mul_commute(p, q):
    assert p + q == q + p
    assert p * q == q * p


@given(polys, polys, polys)
def test_add_and_mul_associate(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)


@given(polys, polys.filter(lambda d: d.coefficient(0) != 0))
def test_series_quotient_times_denominator_restores_numerator(num, den):
    order = 6
    series = series_quotient(num, den, order)
    restored = series_poly_product(series, den)
    expected = [num.coefficient(k) for k in range(order + 1)]
    assert restored == expected


@pytest.mark.parametrize(
    "value, text",
    [
        (0, "0"),
        (42, "42"),
        (-7, "-7"),
        (10**30, "1" + "0" * 30),
        (Fraction(6, 3), "2"),
        (Fraction(-4, 1), "-4"),
        (Fraction(3, 4), "3/4"),
        (Fraction(-1, 2), "-1/2"),
        (True, "1"),
        (False, "0"),
    ],
)
def test_coeff_to_str(value, text):
    assert coeff_to_str(value) == text
