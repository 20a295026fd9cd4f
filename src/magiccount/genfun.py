"""Generating functions in both variables, Ehrhart-style numerator
tables, and exact quasi-polynomial fitting.

Series in the size variable (how many vertices) come from the closed
forms: the line series is the quotient of the two recurrence families,
and the cycle series is the logarithmic-derivative form built from the
denominator family alone.  Series in the magic-sum variable come from
the direct counters; clearing the known pole factors (powers of 1-x,
optionally one 1+x) exposes integer numerator polynomials whose
coefficient rows form the classical tables.

Counts of cycle labelings with at least one loop per vertex decompose as
h(s) = phi(s) + (-1)^s psi with phi polynomial and psi a constant that
only depends on the parity of the vertex count and the total number of
loops.  ``quasipoly_fit`` recovers phi and psi exactly from samples;
``psi_limit_check`` rebuilds the rational closed form of the fitted
sequence and reads psi off as the residue-style limit of (1+t) H(t) at
t = -1, an independent route that must land on the predicted constant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from . import _Record
from .labelings import count_cycle, count_line
from .matrices import solve_exact
from .poly import Poly, coeff_to_str, series_poly_product, series_quotient
from .recurrences import gf_denominator, gf_numerator


class NotStabilized(ArithmeticError):
    """Cleared series kept nonzero tail coefficients: wrong clearing
    factor or too small an order."""


class InconsistentSamples(ValueError):
    """Samples do not fit the assumed polynomial-plus-alternating form."""


def line_series_in_y(s: int, order: int) -> list[Fraction]:
    """Counts h(line with 2 loops, n vertices) for n = 0..order at magic sum s.

    Expansion of the closed-form quotient of the two recurrence families;
    the constant coefficient is s + 1 by the zero-vertex convention.
    """
    return series_quotient(gf_numerator(s), gf_denominator(s), order)


def cycle_series_in_y(s: int, order: int) -> list[Fraction]:
    """Counts h(cycle with 2 loops, n vertices) for n = 0..order at magic sum s.

    Expansion of -y d/dy log(denominator) plus s + 1, so the constant
    coefficient is s + 1 exactly.
    """
    den = gf_denominator(s)
    num = -Poly((0, 1)) * den.derivative()
    series = series_quotient(num, den, order)
    series[0] += s + 1
    return series


def cycle_series(n: int, loops: Sequence[int], order: int) -> list[int]:
    """Counts h(s) for s = 0..order, in the magic-sum variable."""
    loops = tuple(loops)
    return [count_cycle(n, loops, s) for s in range(order + 1)]


# -- numerator tables ---------------------------------------------------------


class NumeratorReport(_Record):
    """Numerator of a magic-sum generating function after pole clearing."""

    kind: str  # "line" or "cycle"
    n: int
    one_minus_x_power: int
    has_one_plus_x: bool
    numerator: Poly

    def coefficients(self) -> tuple[int, ...]:
        return self.numerator.coeffs

    def to_json_obj(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "n": self.n,
            "one_minus_x_power": self.one_minus_x_power,
            "one_plus_x": self.has_one_plus_x,
            "coefficients": [str(c) for c in self.numerator.coeffs],
            "palindromic": self.numerator.is_palindromic(),
        }


def clearing_factor(kind: str, n: int) -> tuple[int, bool]:
    """Pole-clearing exponents for the magic-sum series with two loops.

    Lines clear (1-x)^(2n+2).  Cycles clear (1-x)^(2n+1), times (1+x)
    when n is odd; the zero-vertex cycle is the s+1 sequence and clears
    (1-x)^2 like the line case.
    """
    if kind == "line":
        return 2 * n + 2, False
    if kind == "cycle":
        if n == 0:
            return 2, False
        return 2 * n + 1, n % 2 == 1
    raise ValueError(f"unknown series kind {kind!r}")


def clear_poles(series: Sequence[int], factor: Poly) -> Poly:
    """Multiply a truncated series by its denominator and read off the numerator.

    If the sequence really is generated by numerator / factor, every
    product coefficient at or beyond the factor's degree vanishes; a
    nonzero tail coefficient raises NotStabilized instead of returning a
    silently wrong polynomial.
    """
    if len(series) <= factor.degree:
        raise ValueError("series too short to observe the cleared tail")
    cleared = series_poly_product(series, factor)
    tail = [i for i in range(factor.degree, len(cleared)) if cleared[i] != 0]
    if tail:
        raise NotStabilized(f"cleared series still nonzero at exponents {tail[:4]}")
    return Poly(cleared[: factor.degree])


def ehrhart_numerator(kind: str, n: int, order: int | None = None) -> NumeratorReport:
    """Clear the known pole factors off a magic-sum series.

    The cleared sequence must vanish beyond the clearing degree for the
    whole observed tail (8 slack coefficients by default); a nonzero tail
    raises NotStabilized.
    """
    power, plus = clearing_factor(kind, n)
    factor = Poly((1, -1)) ** power
    if plus:
        factor = factor * Poly((1, 1))
    if order is None:
        order = factor.degree + 8
    if kind == "line":
        series: list[int] = [count_line(n, 2, s) for s in range(order + 1)]
    else:
        series = [count_cycle(n, (2,) * n, s) for s in range(order + 1)]
    numerator = clear_poles(series, factor)
    return NumeratorReport(kind=kind, n=n, one_minus_x_power=power, has_one_plus_x=plus, numerator=numerator)


# -- quasi-polynomial fitting --------------------------------------------------


class QuasiPoly(_Record):
    """h(s) = phi(s) + (-1)^s psi with phi polynomial, psi constant."""

    phi: tuple[Fraction, ...]  # coefficients of phi, ascending degree
    psi: Fraction
    degree: int

    def evaluate(self, s: int) -> Fraction:
        acc = Fraction(0)
        power = 1
        for c in self.phi:
            acc += c * power
            power *= s
        return acc + (self.psi if s % 2 == 0 else -self.psi)

    def closed_form(self) -> tuple[Poly, Poly]:
        """Exact rational generating function Sum h(s) t^s = N(t) / D(t).

        D(t) = (1-t)^(degree+1) (1+t); N is assembled from the standard
        rational forms of Sum s^j t^s and Sum (-1)^s t^s.
        """
        d = self.degree
        one_minus = Poly((1, -1))
        one_plus = Poly((1, 1))
        numerator = Poly()
        for j, c in enumerate(self.phi):
            numerator = numerator + c * power_sum_numerator(j) * one_minus ** (d - j) * one_plus
        numerator = numerator + self.psi * one_minus ** (d + 1)
        return numerator, one_minus ** (d + 1) * one_plus

    def to_json_obj(self) -> dict[str, object]:
        return {
            "degree": self.degree,
            "phi": [coeff_to_str(c) for c in self.phi],
            "psi": coeff_to_str(self.psi),
        }


@lru_cache(maxsize=None)
def power_sum_numerator(j: int) -> Poly:
    """Numerator A_j of Sum_{s>=0} s^j t^s = A_j(t) / (1-t)^(j+1).

    A_0 = 1 and A_{j+1} = t (A_j' (1-t) + (j+1) A_j), the usual effect of
    applying t d/dt to the closed form.
    """
    if j == 0:
        return Poly((1,))
    prev = power_sum_numerator(j - 1)
    return Poly((0, 1)) * (prev.derivative() * Poly((1, -1)) + j * prev)


def quasipoly_fit(samples: Mapping[int, int], degree: int) -> QuasiPoly:
    """Solve exactly for phi of the given degree and the constant psi.

    Needs at least degree + 2 samples; every provided sample, including
    any holdouts beyond the solving window, must be reproduced exactly or
    InconsistentSamples is raised.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    unknowns = degree + 2
    if len(samples) < unknowns:
        raise InconsistentSamples(
            f"need at least {unknowns} samples for degree {degree}, got {len(samples)}"
        )
    points = sorted(samples)

    def row(s: int) -> list[int]:
        return [s**j for j in range(degree + 1)] + [(-1) ** s]

    solution = solve_exact([row(s) for s in points[:unknowns]], [samples[s] for s in points[:unknowns]])
    if solution is None:
        raise InconsistentSamples("sample window yields a singular system")
    fit = QuasiPoly(phi=tuple(solution[:-1]), psi=solution[-1], degree=degree)
    for s in points:
        if fit.evaluate(s) != samples[s]:
            raise InconsistentSamples(
                f"fitted form misses sample at s={s}: {fit.evaluate(s)} != {samples[s]}"
            )
    return fit


def psi_formula(n: int, loops: Sequence[int]) -> Fraction:
    """Predicted alternating constant for a cycle with per-vertex loops.

    Zero for even cycles; 2 / 2^(total loops + 2) for odd ones.  Requires
    every vertex to carry at least one loop.
    """
    loops = tuple(loops)
    if n < 1 or len(loops) != n:
        raise ValueError("need one positive loop count per vertex")
    if any(k < 1 for k in loops):
        raise ValueError("the alternating-constant formula needs every loop count >= 1")
    return Fraction(1 + (-1) ** (n + 1), 2 ** (sum(loops) + 2))


def fit_cycle(n: int, loops: Sequence[int], holdout: int = 10) -> QuasiPoly:
    """Fit the count sequence of one cycle instance.

    Samples cover the solving window plus ``holdout`` extra values, so
    the returned fit has already survived that many independent checks.
    """
    loops = tuple(loops)
    degree = sum(loops)
    top = degree + 1 + holdout
    samples = {s: count_cycle(n, loops, s) for s in range(top + 1)}
    return quasipoly_fit(samples, degree)


def alternating_limit(fit: QuasiPoly) -> Fraction:
    """Evaluate (1+t) H(t) at t = -1 for the closed form H of a fit.

    H(t) = N(t) / ((1-t)^(d+1) (1+t)), so after the (1+t) factor cancels
    the value at t = -1 is N(-1) / 2^(d+1).  For a sequence with no pole
    at t = -1 this vanishes; in general it equals the alternating
    constant of the sequence.
    """
    numerator, _ = fit.closed_form()
    return Fraction(numerator(-1), 2 ** (fit.degree + 1))


def psi_limit_check(n: int, loops: Sequence[int], holdout: int = 10) -> Fraction:
    """Alternating limit of the fitted cycle sequence, via the closed form.

    The fitted sequence is rebuilt as a rational function, the expansion
    is checked against the fit, and the limit of (1+t) H(t) at t = -1 is
    returned.  For odd cycles this must equal the predicted constant.
    """
    if n % 2 == 0:
        raise ValueError("the limit check applies to odd cycles")
    fit = fit_cycle(n, loops, holdout=holdout)
    numerator, denominator = fit.closed_form()
    # the closed form must reproduce the sequence it came from
    window = fit.degree + 1 + holdout
    expansion = series_quotient(numerator, denominator, window)
    for s, value in enumerate(expansion):
        if value != fit.evaluate(s):
            raise ArithmeticError("closed-form expansion disagrees with the fit")
    return alternating_limit(fit)
