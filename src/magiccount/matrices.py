"""Structured integer matrices and exact linear algebra.

Three matrix families drive the closed-form counts:

* the transfer matrix of order s+1, whose (i, j) entry (0-indexed) is
  s+1-i-j inside the anti-triangle i+j <= s and 0 outside it;
* its explicit inverse, a banded matrix with 1, -2, 1 on the three
  anti-diagonals just below the main anti-diagonal;
* two "mirror tridiagonal" matrices, obtained by reversing the rows of a
  tridiagonal (-1, 2, -1) matrix, which differ only in the top-right
  corner entry (1 in one family, 2 in the other).

One fraction-free Bareiss elimination, ``_echelon``, serves the
determinant, the rank and the linear solve.  Rational rows are first
scaled by the lcm of their denominators, which changes neither the rank
nor the solution, so every entry stays an integer minor.
No elimination builds the matrix polynomials.  det(I - yM) comes from
the power sums trace(M^r), r = 1..n, by Newton's identities, with every
division checked to be exact (``det_from_power_sums``).  Each row of a
power is packed into one integer, with digits wide enough for a proven
bound on the entries, and formed from the nonzero entries of a row of M,
so the sparse families cost O(n^2) interpreted steps for the whole
polynomial; the digit arithmetic runs in C.  ``char_poly``, det(yI - M),
is its coefficient reversal.  The bordered-determinant sweep of
``adjugate_allones_form``, n+1 Bareiss determinants and one
interpolation, is the reference the tests check against.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .poly import Coeff, Poly, interpolate


class DimensionMismatch(ValueError):
    """Operands have incompatible sizes."""


class Matrix:
    """Immutable square matrix of exact integers, row-major."""

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("matrix must be square")
        self.rows: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix([[int(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Matrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]!r})"

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.order != other.order:
            raise DimensionMismatch(f"orders {self.order} and {other.order} differ")
        cols = tuple(zip(*other.rows))
        return Matrix([[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows])

    def power(self, exponent: int) -> Matrix:
        """Binary exponentiation; the zeroth power is the identity."""
        if exponent < 0:
            raise ValueError("negative matrix powers are not supported")
        result = Matrix.identity(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.order))

    def entry_sum(self) -> int:
        """Sum of all entries, i.e. the quadratic form with the all-ones vector."""
        return sum(sum(row) for row in self.rows)


# -- the structured families ------------------------------------------------


def transfer_matrix(s: int) -> Matrix:
    """The (s+1) x (s+1) transfer matrix for magic sum s.

    Entry (i, j), 0-indexed, counts labelings of one chain link with
    boundary labels i and j: s+1-i-j when i+j <= s, else 0.
    """
    if s < 0:
        raise ValueError("magic sum must be nonnegative")
    return Matrix([[s + 1 - i - j if i + j <= s else 0 for j in range(s + 1)] for i in range(s + 1)])


def transfer_inverse(n: int) -> Matrix:
    """Explicit inverse of the order-n transfer matrix.

    Banded along anti-diagonals: entry 1 where i+j = n-1, -2 where
    i+j = n, 1 where i+j = n+1 (0-indexed), 0 elsewhere.  The product
    check transfer_matrix(n-1) @ transfer_inverse(n) == identity is the
    normative definition; see the test suite.
    """
    if n < 1:
        raise ValueError("order must be positive")

    def entry(i: int, j: int) -> int:
        band = i + j
        if band == n - 1:
            return 1
        if band == n:
            return -2
        if band == n + 1:
            return 1
        return 0

    return Matrix([[entry(i, j) for j in range(n)] for i in range(n)])


def mirror_tridiagonal(n: int, corner: int) -> Matrix:
    """Row-reversed tridiagonal (-1, 2, -1) matrix of order n.

    The main anti-diagonal carries 2, the two neighbouring anti-diagonals
    carry -1, and the top-right corner is overridden by ``corner`` (1 or
    2); the two choices give the two comparison families used by the
    characteristic-polynomial identities.  Defined for all n >= 1; the
    order-1 instances are (1) and (2).
    """
    if n < 1:
        raise ValueError("order must be positive")
    if corner not in (1, 2):
        raise ValueError("corner entry must be 1 or 2")

    def entry(i: int, j: int) -> int:
        band = i + j
        if i == 0 and j == n - 1:
            return corner
        if band == n - 1:
            return 2
        if band in (n - 2, n):
            return -1
        return 0

    return Matrix([[entry(i, j) for j in range(n)] for i in range(n)])


# -- exact elimination -------------------------------------------------------


def _echelon(work: list[list[int]]) -> tuple[int, int]:
    """Bring an integer matrix to fraction-free row echelon form in place.

    Bareiss elimination: each step divides exactly by the previous pivot,
    so every entry stays an integer minor of the input.  A column with no
    pivot is skipped; the division stays exact because Sylvester's
    identity holds on any choice of columns.  Returns (rank, sign), sign
    being that of the row permutation.
    """
    n_rows = len(work)
    n_cols = len(work[0]) if work else 0
    rank, sign, prev = 0, 1, 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot = next((r for r in range(rank, n_rows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        top = work[rank]
        lead = top[col]
        for row in work[rank + 1 :]:
            below = row[col]
            row[col] = 0
            for j in range(col + 1, n_cols):
                row[j] = (row[j] * lead - below * top[j]) // prev
        prev = lead
        rank += 1
    return rank, sign


def _integral_rows(rows: Sequence[Sequence[Coeff]]) -> list[list[int]]:
    """Scale each rational row by the lcm of its denominators."""
    work = []
    for row in rows:
        entries = [Fraction(e) for e in row]
        scale = lcm(*(e.denominator for e in entries))
        work.append([e.numerator * (scale // e.denominator) for e in entries])
    return work


def det(m: Matrix) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    n = m.order
    if n == 0:
        return 1
    work = [list(row) for row in m.rows]
    rank, sign = _echelon(work)
    return sign * work[n - 1][n - 1] if rank == n else 0


def _interpolate_integral(values: list[tuple[int, int]]) -> Poly:
    p = interpolate(values)
    if not p.is_integral():
        raise ArithmeticError("interpolated matrix polynomial is not integral")
    return p


def det_from_power_sums(power_sums: Sequence[int]) -> Poly:
    """det(I - yM) from the power sums p_r = trace(M^r), r = 1..N, of M.

    M is an integer matrix of order N.  Newton's identities give its coefficients c_k, which are (-1)^k times
    the elementary symmetric functions of the eigenvalues:
    k c_k = -Sum_{i=1..k} c_{k-i} p_i.  Every c_k of an integer matrix is
    an integer, so a division by k that is not exact raises
    ArithmeticError: no integer matrix has those power sums.

    >>> det_from_power_sums([3, 7])  # M = [[1, 1], [1, 2]]
    Poly('1 - 3y + y^2')
    """
    coeffs = [1]
    for k in range(1, len(power_sums) + 1):
        total = -sum(coeffs[k - i] * power_sums[i - 1] for i in range(1, k + 1))
        c, rest = divmod(total, k)
        if rest:
            raise ArithmeticError(f"power sums of no integer matrix: {total} is not a multiple of {k}")
        coeffs.append(c)
    return Poly(coeffs)


def _power_sums(m: Matrix) -> list[int]:
    """trace(M^r) for r = 1..n.

    Row i of M^r is packed into one integer, entry j in a signed digit
    of ``width`` bits: Sum_j (M^r)_ij 2^(width*j).  Each power is M times
    the last one, so row i of M^(r+1) is Sum_k M_ik (row k of M^r), one
    big-integer product and sum per nonzero entry of M.  A matrix with
    at most three nonzeros per row thus costs O(n) interpreted steps per
    power and O(n^2) for all n powers; the digit arithmetic runs in C.

    The width comes from a proven bound, not from the values: for
    r <= n, |(M^r)_ij| <= ||M||^r <= B = max(1, ||M||^n), where ||M|| is
    the largest absolute row sum.  With width = bitlength(B) + 1 every
    entry lies in [-half, half) for half = 2^(width-1) > B; one bit less
    would leave half <= B, and an entry equal to B would overflow.  Adding
    ``half`` to every digit makes all digits nonnegative, so no borrow
    crosses a digit and the diagonal digit of row i reads back exactly.
    """
    n = m.order
    nonzero = [[(j, a) for j, a in enumerate(row) if a] for row in m.rows]
    norm = max((sum(abs(a) for _, a in terms) for terms in nonzero), default=0)
    width = max(1, norm**n).bit_length() + 1
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    bias = half * (((1 << (width * n)) - 1) // mask)
    shifts = range(0, width * n, width)
    power = [sum(a << shifts[j] for j, a in terms) for terms in nonzero]
    sums = []
    for r in range(n):
        if r:
            power = [sum(a * power[j] for j, a in terms) for terms in nonzero]
        sums.append(sum(((v + bias) >> shift) & mask for v, shift in zip(power, shifts)) - n * half)
    return sums


def char_poly(m: Matrix) -> Poly:
    """Characteristic polynomial det(yI - M), monic of degree n.

    The coefficient reversal of det(I - yM), which Newton's identities
    build from the power sums of M.
    """
    coeffs = det_from_power_sums(_power_sums(m)).coeffs
    return Poly(reversed(coeffs + (0,) * (m.order + 1 - len(coeffs))))


def det_identity_minus_y(m: Matrix) -> Poly:
    """det(I - yM) as an exact integer polynomial of degree <= n.

    Built from the power sums of M by Newton's identities; for a
    singular M the degree drops below n.
    """
    return det_from_power_sums(_power_sums(m))


def adjugate_allones_form(m: Matrix) -> Poly:
    """The polynomial u^T adj(I - yM) u for the all-ones vector u.

    Uses the bordered-determinant identity v^T adj(A) v = -det([[0, v^T],
    [v, A]]), one (n+1) x (n+1) determinant per evaluation point instead
    of n^2 cofactors.  Degree bound n; the true degree is at most n-1.
    """
    n = m.order
    values = []
    for point in range(n + 1):
        bordered = [[0] + [1] * n]
        for i in range(n):
            bordered.append([1] + [int(i == j) - point * m.rows[i][j] for j in range(n)])
        values.append((point, -det(Matrix(bordered))))
    return _interpolate_integral(values)


# -- exact rational elimination ----------------------------------------------


def solve_exact(
    system: Sequence[Sequence[Coeff]], rhs: Sequence[Coeff]
) -> Optional[list[Fraction]]:
    """Solve a square linear system over the rationals.

    Returns None when the system is singular.
    """
    n = len(system)
    if len(rhs) != n or any(len(row) != n for row in system):
        raise DimensionMismatch("system must be square with matching rhs")
    work = _integral_rows([list(row) + [rhs[i]] for i, row in enumerate(system)])
    _echelon(work)
    if any(work[i][i] == 0 for i in range(n)):
        return None
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = work[i][n] - sum(work[i][j] * solution[j] for j in range(i + 1, n))
        solution[i] = Fraction(acc, work[i][i])
    return solution


def rational_rank(rows: Sequence[Sequence[Coeff]]) -> int:
    """Rank of a rectangular matrix over the rationals, by elimination."""
    return _echelon(_integral_rows(rows))[0]
