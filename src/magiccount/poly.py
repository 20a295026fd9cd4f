"""Exact dense univariate polynomial arithmetic.

Coefficients are Python ints or ``fractions.Fraction`` values, stored in
ascending order of degree, so ``Poly((1, -2, -1))`` is 1 - 2y - y^2.  The
zero polynomial is the empty tuple; trailing zeros are always stripped, so
equality is structural.  Every operation is pure and returns a new value.

The indeterminate is deliberately anonymous: the same class carries
polynomials in the size variable of the transfer-matrix families and in
the magic-sum variable of the Ehrhart-style series.  Callers choose the
letter only when formatting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]


class ZeroConstantTerm(ZeroDivisionError):
    """Power-series division requires a nonzero constant term."""


def _canon(value: Coeff) -> Coeff:
    """Collapse integer-valued Fractions to plain ints."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class Poly:
    """Immutable dense polynomial with exact coefficients.

    >>> p = Poly((1, -2, -1))
    >>> p.degree
    2
    >>> p(2)
    -7
    >>> p.negate_variable()
    Poly('1 + 2y - y^2')
    """

    def __init__(self, coeffs: Iterable[Coeff] = ()) -> None:
        cs = [_canon(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Coeff, ...] = tuple(cs)

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Coeff:
        """Coefficient of y^i (0 beyond the stored degree)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"

    def to_text(self, var: str = "y") -> str:
        """Human-readable rendering, constant term first.

        >>> Poly((1, -2, -1)).to_text()
        '1 - 2y - y^2'
        >>> Poly().to_text()
        '0'
        """
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            term = "" if i == 0 else var if i == 1 else f"{var}^{i}"
            body = str(mag) if (i == 0 or mag != 1) else ""
            piece = f"{body}{term}" if term or body else "1"
            if not parts:
                parts.append(piece if sign == "+" else f"-{piece}")
            else:
                parts.append(f"{sign} {piece}")
        return " ".join(parts)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union[Poly, Coeff]) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return Poly(summed)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union[Poly, Coeff]) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Coeff) -> Poly:
        return Poly((other,)) - self

    def __mul__(self, other: Union[Poly, Coeff]) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out: list[Coeff] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Poly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, point: Coeff) -> Coeff:
        """Evaluate at a point by Horner's rule, exactly."""
        acc: Coeff = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return _canon(acc)

    # -- calculus and substitution ------------------------------------------

    def negate_variable(self) -> Poly:
        """Return p(-y): odd-degree coefficients change sign."""
        return Poly(tuple(-c if i & 1 else c for i, c in enumerate(self.coeffs)))

    def derivative(self) -> Poly:
        """Formal derivative d/dy."""
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def is_palindromic(self) -> bool:
        """Coefficient vector reads the same in both directions."""
        return self.coeffs == tuple(reversed(self.coeffs))


def series_quotient(num: Poly, den: Poly, order: int) -> list[Fraction]:
    """First ``order + 1`` Taylor coefficients of num/den at the origin.

    The denominator must have a nonzero constant term.  Coefficients come
    back as exact Fractions even when they happen to be integers.

    >>> series_quotient(Poly((1,)), Poly((1, -1)), 4)
    [Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    d0 = den.coefficient(0)
    if d0 == 0:
        raise ZeroConstantTerm("denominator has zero constant term")
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = Fraction(num.coefficient(k))
        for i in range(1, min(k, den.degree) + 1):
            acc -= den.coefficient(i) * out[k - i]
        out.append(acc / d0)
    return out


def series_poly_product(series: Sequence[Coeff], p: Poly) -> list[Coeff]:
    """Truncated product of a coefficient sequence with a polynomial.

    The result has the same length as ``series``; coefficient k of the
    product only needs series terms of index <= k, so the truncation is
    exact up to that length.
    """
    out: list[Coeff] = []
    for k in range(len(series)):
        acc: Coeff = 0
        for j in range(min(k, p.degree) + 1):
            acc += p.coefficient(j) * series[k - j]
        out.append(_canon(acc))
    return out


def interpolate(points: Sequence[tuple[int, Coeff]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    Uses Newton divided differences over exact rationals.  Abscissas must
    be pairwise distinct.

    >>> interpolate([(0, 1), (1, 0), (2, 1)])
    Poly('1 - 2y + y^2')
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    dd = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    result = Poly()
    basis = Poly((1,))
    for i, coeff in enumerate(dd):
        result = result + basis * coeff
        basis = basis * Poly((-xs[i], 1))
    return result


def coeff_to_str(value: Coeff) -> str:
    """Decimal string for ints, 'p/q' for proper rationals.

    >>> [coeff_to_str(v) for v in (7, Fraction(4, 2), Fraction(-3, 4), True)]
    ['7', '2', '-3/4', '1']
    """
    if type(value) is int:  # exact type: bools take the int() path below
        return str(value)
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def poly_to_json(p: Poly) -> list[str]:
    """JSON-friendly coefficient list, ascending degree, decimal strings."""
    return [coeff_to_str(c) for c in p.coeffs]
