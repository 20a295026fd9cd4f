"""Generating functions, numerator tables, and quasi-polynomial fits."""

import itertools
from fractions import Fraction

import pytest

from magiccount import genfun
from magiccount.genfun import (
    InconsistentSamples,
    NotStabilized,
    alternating_limit,
    clear_poles,
    clearing_factor,
    cycle_series,
    cycle_series_in_y,
    ehrhart_numerator,
    fit_cycle,
    line_series_in_y,
    psi_formula,
    psi_limit_check,
    quasipoly_fit,
)
from magiccount.labelings import count_cycle, count_line
from magiccount.poly import Poly, series_quotient

# Coefficient rows of the cleared magic-sum series, by vertex count.
LINE_NUMERATORS = {
    0: (1,),
    1: (1,),
    2: (1, 4, 1),
    3: (1, 16, 37, 16, 1),
    4: (1, 48, 351, 656, 351, 48, 1),
    5: (1, 128, 2286, 11120, 18471, 11120, 2286, 128, 1),
    6: (1, 324, 12530, 130420, 490309, 753488, 490309, 130420, 12530, 324, 1),
}
CYCLE_NUMERATORS = {
    0: (1,),
    1: (1,),
    2: (1, 1),
    3: (1, 8, 15, 8, 1),
    4: (1, 25, 106, 106, 25, 1),
    5: (1, 72, 878, 3304, 4995, 3304, 878, 72, 1),
}


def test_line_series_examples():
    assert line_series_in_y(1, 2) == [2, 4, 10]
    assert line_series_in_y(0, 3) == [1, 1, 1, 1]
    assert line_series_in_y(4, 1) == [5, 35]


def test_cycle_series_examples():
    assert cycle_series_in_y(1, 2) == [2, 2, 6]
    assert cycle_series_in_y(4, 1) == [5, 9]


@pytest.mark.parametrize("s", range(0, 9))
def test_line_series_equals_direct_counts(s):
    series = line_series_in_y(s, 8)
    assert series == [count_line(n, 2, s) for n in range(9)]


@pytest.mark.parametrize("s", range(0, 9))
def test_cycle_series_equals_direct_counts(s):
    series = cycle_series_in_y(s, 8)
    assert series[0] == s + 1
    assert series == [count_cycle(n, (2,) * n, s) for n in range(9)]


@pytest.mark.parametrize("n, expected", sorted(LINE_NUMERATORS.items()))
def test_line_numerator_rows(n, expected):
    report = ehrhart_numerator("line", n)
    assert report.coefficients() == expected
    assert report.one_minus_x_power == 2 * n + 2
    assert not report.has_one_plus_x


@pytest.mark.parametrize("n, expected", sorted(CYCLE_NUMERATORS.items()))
def test_cycle_numerator_rows(n, expected):
    report = ehrhart_numerator("cycle", n)
    assert report.coefficients() == expected
    assert report.one_minus_x_power == (2 if n == 0 else 2 * n + 1)
    assert report.has_one_plus_x == (n % 2 == 1 and n > 0)


@pytest.mark.parametrize("n", range(0, 7))
def test_line_numerators_are_palindromic(n):
    # symmetry is claimed from n >= 2 and observed everywhere in range
    assert ehrhart_numerator("line", n).numerator.is_palindromic()


@pytest.mark.parametrize("n", range(0, 6))
def test_cycle_numerators_are_palindromic(n):
    assert ehrhart_numerator("cycle", n).numerator.is_palindromic()


def test_wrong_clearing_factor_does_not_stabilize():
    series = [count_cycle(3, (2, 2, 2), s) for s in range(20)]
    with pytest.raises(NotStabilized):
        clear_poles(series, Poly((1, -1)) ** 7)  # missing the (1+x) factor
    with pytest.raises(NotStabilized):
        clear_poles(series, Poly((1, -1)) ** 5 * Poly((1, 1)))  # pole order too low


def test_clearing_factor_rejects_unknown_kind():
    with pytest.raises(ValueError):
        clearing_factor("torus", 3)


def test_quasipoly_fit_floor_sequence():
    samples = {s: s // 2 + 1 for s in range(4)}
    fit = quasipoly_fit(samples, 1)
    assert fit.phi == (Fraction(3, 4), Fraction(1, 2))
    assert fit.psi == Fraction(1, 4)


def test_quasipoly_fit_even_cycle_has_no_alternating_part():
    samples = {s: count_cycle(2, (1, 1), s) for s in range(10)}
    assert quasipoly_fit(samples, 2).psi == 0


def test_quasipoly_fit_odd_cycle():
    samples = {s: count_cycle(3, (1, 1, 1), s) for s in range(6)}
    assert quasipoly_fit(samples, 3).psi == Fraction(1, 16)


def test_quasipoly_fit_needs_enough_samples():
    with pytest.raises(InconsistentSamples):
        quasipoly_fit({0: 1, 1: 1}, 1)


def test_quasipoly_fit_rejects_wrong_degree():
    samples = {s: count_cycle(3, (1, 1, 1), s) for s in range(10)}
    with pytest.raises(InconsistentSamples):
        quasipoly_fit(samples, 2)


@pytest.mark.parametrize(
    "n, loops",
    [(2, (1, 0)), (2, (2, 1)), (2, (0, 0)), (4, (1, 0, 2, 0)), (4, (1, 1, 1, 1)), (4, (0, 0, 0, 0))],
)
def test_even_cycles_have_no_alternating_part(n, loops):
    # degree bound sum(loops) + 1 also covers the rank drop of loop-free rings
    degree = sum(loops) + 1
    samples = {s: count_cycle(n, loops, s) for s in range(degree + 12)}
    assert quasipoly_fit(samples, degree).psi == 0


def test_psi_formula_values():
    assert psi_formula(3, (1, 1, 1)) == Fraction(1, 16)
    assert psi_formula(2, (1, 1)) == 0
    assert psi_formula(1, (2,)) == Fraction(1, 8)


def test_psi_formula_requires_loops_everywhere():
    with pytest.raises(ValueError):
        psi_formula(2, (1, 0))


@pytest.mark.parametrize("n", range(1, 5))
def test_fits_recover_degree_and_alternating_constant(n):
    for loops in itertools.product((1, 2), repeat=n):
        fit = fit_cycle(n, loops)
        assert Poly(fit.phi).degree == sum(loops)
        assert fit.psi == psi_formula(n, loops)


def test_fit_reproduces_holdout_samples():
    fit = fit_cycle(3, (2, 1, 2), holdout=10)
    top = fit.degree + 1 + 10
    for s in range(top + 1):
        assert fit.evaluate(s) == count_cycle(3, (2, 1, 2), s)


def test_closed_form_expands_back_to_the_sequence():
    fit = fit_cycle(3, (1, 1, 1))
    numerator, denominator = fit.closed_form()
    expansion = series_quotient(numerator, denominator, 12)
    assert expansion == [count_cycle(3, (1, 1, 1), s) for s in range(13)]


def test_psi_limit_check_values():
    assert psi_limit_check(3, (1, 1, 1)) == Fraction(1, 16)
    assert psi_limit_check(1, (1,)) == Fraction(1, 4)
    assert psi_limit_check(1, (2,)) == Fraction(1, 8)


def test_psi_limit_check_holds_out_ten_samples_by_default(monkeypatch):
    sampled = []

    def recording_count(n, loops, s):
        sampled.append(s)
        return count_cycle(n, loops, s)

    monkeypatch.setattr(genfun, "count_cycle", recording_count)
    assert psi_limit_check(3, (1, 1, 1)) == Fraction(1, 16)
    # the solving window of degree 3 is s = 0..4, then ten holdouts
    assert sorted(sampled) == list(range(15))


def test_psi_limit_check_rejects_even_cycles():
    with pytest.raises(ValueError):
        psi_limit_check(2, (1, 1))


def test_alternating_limit_equals_fitted_psi():
    for n, loops in [(1, (2,)), (3, (1, 2, 1)), (5, (1,) * 5)]:
        fit = fit_cycle(n, loops)
        assert alternating_limit(fit) == fit.psi


def test_cycle_series_examples_in_magic_sum():
    assert cycle_series(1, (2,), 3) == [1, 2, 4, 6]
    assert cycle_series(2, (2, 2), 2) == [1, 6, 20]
    assert cycle_series(3, (1, 1, 1), 0) == [1]
