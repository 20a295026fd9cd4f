"""Structured matrix families and exact determinant machinery."""

from fractions import Fraction
from itertools import accumulate, combinations, repeat
from operator import matmul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from magiccount.matrices import (
    DimensionMismatch,
    Matrix,
    _echelon,
    _integral_rows,
    _interpolate_integral,
    _power_sums,
    adjugate_allones_form,
    char_poly,
    det,
    det_from_power_sums,
    det_identity_minus_y,
    mirror_tridiagonal,
    rational_rank,
    solve_exact,
    transfer_inverse,
    transfer_matrix,
)
from magiccount.poly import Poly


def test_transfer_matrix_order_five_entries():
    assert transfer_matrix(4) == Matrix(
        [
            [5, 4, 3, 2, 1],
            [4, 3, 2, 1, 0],
            [3, 2, 1, 0, 0],
            [2, 1, 0, 0, 0],
            [1, 0, 0, 0, 0],
        ]
    )


def test_transfer_matrix_order_six_first_row():
    assert transfer_matrix(5).rows[0] == (6, 5, 4, 3, 2, 1)


def test_transfer_matrix_smallest():
    assert transfer_matrix(0) == Matrix([[1]])


@pytest.mark.parametrize("n", range(1, 13))
def test_transfer_inverse_is_a_two_sided_inverse(n):
    b = transfer_matrix(n - 1)
    inv = transfer_inverse(n)
    assert b @ inv == Matrix.identity(n)
    assert inv @ b == Matrix.identity(n)


def test_transfer_inverse_order_one():
    assert transfer_inverse(1) == Matrix([[1]])


def test_transfer_inverse_order_two_against_direct_inversion():
    # 2x2 inversion oracle: inv = adj / det for [[2, 1], [1, 0]]
    a, b, c, d = 2, 1, 1, 0
    determinant = a * d - b * c
    oracle = [[d // determinant, -b // determinant], [-c // determinant, a // determinant]]
    assert transfer_inverse(2) == Matrix(oracle)


def test_mirror_matrices_order_five_entries():
    corner1 = mirror_tridiagonal(5, 1)
    assert corner1.rows[0] == (0, 0, 0, -1, 1)
    assert corner1.rows[4] == (2, -1, 0, 0, 0)
    assert corner1 == Matrix(
        [
            [0, 0, 0, -1, 1],
            [0, 0, -1, 2, -1],
            [0, -1, 2, -1, 0],
            [-1, 2, -1, 0, 0],
            [2, -1, 0, 0, 0],
        ]
    )
    assert mirror_tridiagonal(5, 2).rows[0] == (0, 0, 0, -1, 2)


def test_mirror_matrix_smallest_cases():
    assert mirror_tridiagonal(2, 1) == Matrix([[-1, 1], [2, -1]])
    assert mirror_tridiagonal(1, 1) == Matrix([[1]])
    assert mirror_tridiagonal(1, 2) == Matrix([[2]])


@pytest.mark.parametrize("n", range(2, 13))
def test_mirror_corner_one_determinant_sign(n):
    assert det(mirror_tridiagonal(n, 1)) == (-1) ** (n * (n - 1) // 2 % 2)


def test_power_squares_the_smallest_transfer_matrix():
    assert transfer_matrix(1).power(2) == Matrix([[5, 2], [2, 1]])


def test_zeroth_power_is_identity():
    assert transfer_matrix(3).power(0) == Matrix.identity(4)


def test_product_requires_matching_orders():
    with pytest.raises(DimensionMismatch):
        transfer_matrix(1) @ transfer_matrix(2)


def test_allones_form_and_trace_of_order_five():
    b5 = transfer_matrix(4)
    assert b5.entry_sum() == 35  # equals the one-vertex line count at s=4
    assert b5.trace() == 9  # equals the one-vertex cycle count at s=4
    assert Matrix.identity(3).entry_sum() == 3
    assert Matrix.identity(3).trace() == 3


@pytest.mark.parametrize(
    "order, expected",
    [
        (1, Poly((1, -1))),
        (2, Poly((1, -2, -1))),
        (4, Poly((1, -6, -7, 2, 1))),
    ],
)
def test_det_identity_minus_y_initial_values(order, expected):
    assert det_identity_minus_y(transfer_matrix(order - 1)) == expected


def test_char_poly_of_identity_and_zero():
    assert char_poly(Matrix.identity(2)) == Poly((1, -2, 1))
    assert char_poly(Matrix([[0, 0], [0, 0]])) == Poly((0, 0, 1))


def test_char_poly_mirror_equals_inverse():
    assert char_poly(mirror_tridiagonal(5, 1)) == char_poly(transfer_inverse(5))


@pytest.mark.parametrize("n", range(1, 13))
def test_signed_det_identity(n):
    sign = (-1) ** (n * (n + 1) // 2 % 2)
    assert char_poly(transfer_inverse(n)) == sign * det_identity_minus_y(transfer_matrix(n - 1))


@pytest.mark.parametrize(
    "order, expected",
    [
        (1, Poly((1,))),
        (3, Poly((3, -2))),
        (4, Poly((4, -4, -2))),
    ],
)
def test_adjugate_allones_form_initial_values(order, expected):
    assert adjugate_allones_form(transfer_matrix(order - 1)) == expected


def _identity_minus_y(entries):
    n = len(entries)
    return [[Poly((int(i == j), -entries[i][j])) for j in range(n)] for i in range(n)]


def _cofactor_det(rows):
    """Determinant by expansion along the first row; exact for int, Fraction and Poly entries."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * lead * _cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, lead in enumerate(rows[0])
    )


def _adjugate_oracle(entries):
    """u^T adj(I - yM) u by explicit cofactors, for orders 2 and 3."""
    n = len(entries)
    a = _identity_minus_y(entries)
    total = Poly()
    for i in range(n):
        for j in range(n):
            # adj(A)[i][j] is the (j, i) cofactor
            minor = [row[:i] + row[i + 1 :] for k, row in enumerate(a) if k != j]
            cof = _cofactor_det(minor)
            total = total + (cof if (i + j) % 2 == 0 else -cof)
    return total


@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_adjugate_form_matches_cofactor_oracle(entries):
    assert adjugate_allones_form(Matrix(entries)) == _adjugate_oracle(entries)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.booleans(),
)
def test_det_identity_minus_y_matches_cofactor_expansion(entries, singular):
    # the reversal of char_poly must also hold when M is singular and the
    # degree drops below the order
    if singular:
        entries[-1] = [0] * len(entries)
    expected = _cofactor_det(_identity_minus_y(entries))
    assert det_identity_minus_y(Matrix(entries)) == expected
    if singular:
        assert expected.degree < len(entries)


def test_solve_exact_solves_and_detects_singularity():
    assert solve_exact([[2, 0], [0, 4]], [1, 1]) == [Fraction(1, 2), Fraction(1, 4)]
    assert solve_exact([[1, 2], [2, 4]], [1, 2]) is None


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert rational_rank([]) == 0


def test_det_with_pivoting():
    assert det(Matrix([[0, 1], [1, 0]])) == -1
    assert det(Matrix([[0, 0], [0, 0]])) == 0


# -- the elimination routine against a cofactor-expansion oracle ---------------


def _minor_rank(rows):
    """Largest k with a nonzero k x k minor."""
    n_cols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), n_cols), 0, -1):
        for picked in combinations(rows, k):
            for cols in combinations(range(n_cols), k):
                if _cofactor_det([[row[j] for j in cols] for row in picked]) != 0:
                    return k
    return 0


_ENTRY = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


def _with_dependencies(draw, rows):
    """Optionally repeat a row and zero a column, to reach rank-deficient cases."""
    if len(rows) > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, len(rows) - 1))] = list(rows[0])
    if rows and rows[0] and draw(st.booleans()):
        col = draw(st.integers(0, len(rows[0]) - 1))
        for row in rows:
            row[col] = 0
    return rows


@st.composite
def _square(draw, entries=st.integers(min_value=-4, max_value=4), min_order=0, max_order=5):
    n = draw(st.integers(min_order, max_order))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return _with_dependencies(draw, rows)


@st.composite
def _rectangular(draw):
    n_rows, n_cols = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    return _with_dependencies(draw, rows)


@given(_square())
def test_det_matches_cofactor_oracle(rows):
    assert det(Matrix(rows)) == _cofactor_det(rows)


@given(_rectangular())
def test_rational_rank_matches_minor_oracle(rows):
    assert rational_rank(rows) == _minor_rank(rows)


@given(_square(entries=_ENTRY, min_order=1), st.lists(_ENTRY, min_size=5, max_size=5))
def test_solve_exact_matches_cofactor_oracle(system, values):
    rhs = values[: len(system)]
    solution = solve_exact(system, rhs)
    if _cofactor_det(system) == 0:
        assert solution is None
    else:
        assert all(type(x) is Fraction for x in solution)
        assert [sum(a * x for a, x in zip(row, solution)) for row in system] == rhs


# the first pivot is 2, column 1 then has no pivot, and the step on column 2
# divides by that 2 after the skip
_SKIP_AFTER_PIVOT = [[2, 1, 1, 3], [4, 2, 3, 1], [6, 3, 5, 7]]


@pytest.mark.parametrize(
    "rows, rank",
    [
        (_SKIP_AFTER_PIVOT, 3),
        ([[0] + row for row in _SKIP_AFTER_PIVOT] + [[0, 12, 6, 9, 11]], 3),
        ([[0, 1, 2], [0, 2, 4], [0, 3, 7]], 2),
        ([[0, 1, 2], [0, 2, 5], [1, 0, 0]], 3),
        ([[Fraction(1, 2), Fraction(1, 3)], [3, 2]], 1),
        ([[0, 0, 0], [0, 0, 0]], 0),
    ],
)
def test_rank_with_skipped_pivot_columns(rows, rank):
    assert _minor_rank(rows) == rank
    assert rational_rank(rows) == rank


def test_det_and_solve_after_pivot_swap():
    rows = [[0, 1, 2], [0, 2, 5], [1, 0, 0]]
    assert det(Matrix(rows)) == _cofactor_det(rows) == 1
    assert solve_exact(rows, [3, 7, 1]) == [1, 1, 1]


def test_solve_exact_singular_after_skipped_column():
    system = [[2, 1, 1], [4, 2, 3], [6, 3, 5]]
    assert _cofactor_det(system) == 0
    assert solve_exact(system, [1, 2, 3]) is None


def _assert_entries_are_minors(rows):
    """Every entry of the echelon form is a minor of the row-permuted input.

    Row i holds, in column j, the minor on the first min(i, rank) pivot
    rows plus row i and on their pivot columns plus column j; entries
    that are only multiples of their minors fail.
    """
    work = [list(row) for row in rows]
    order = [id(row) for row in work]
    rank, _sign = _echelon(work)
    permuted = [rows[order.index(id(row))] for row in work]
    pivots = [next(j for j, e in enumerate(work[i]) if e != 0) for i in range(rank)]
    for i, row in enumerate(work):
        k = min(i, rank)
        for j, entry in enumerate(row):
            picked = permuted[:k] + [permuted[i]]
            minor = _cofactor_det([[r[c] for c in pivots[:k] + [j]] for r in picked])
            assert entry == minor, (i, j)


@pytest.mark.parametrize(
    "rows",
    [
        _SKIP_AFTER_PIVOT,
        [[0] + row for row in _SKIP_AFTER_PIVOT] + [[0, 12, 6, 9, 11]],
        [[2, 1, 1, 3], [4, 2, 3, 1], [6, 3, 5, 7], [3, 1, 4, 1]],
        [[0, 1, 2], [0, 2, 5], [1, 0, 0]],
    ],
)
def test_echelon_entries_are_minors_after_a_skipped_column(rows):
    _assert_entries_are_minors(rows)


@given(_rectangular())
def test_echelon_entries_are_minors(rows):
    _assert_entries_are_minors(_integral_rows(rows))


# -- Newton's identities against the elimination sweep -----------------------


def _elimination_char_poly(m):
    """det(yI - M) from n+1 Bareiss determinants and one interpolation."""
    n = m.order
    values = [
        (y, det(Matrix([[y * int(i == j) - m.rows[i][j] for j in range(n)] for i in range(n)])))
        for y in range(n + 1)
    ]
    return _interpolate_integral(values)


def _elimination_det_identity_minus_y(m):
    coeffs = _elimination_char_poly(m).coeffs
    return Poly(reversed(coeffs + (0,) * (m.order + 1 - len(coeffs))))


@st.composite
def _sparse_square(draw):
    """At most three nonzero entries per row, as in the mirror and inverse families."""
    n = draw(st.integers(1, 7))
    rows = []
    for _ in range(n):
        row = [0] * n
        for j in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
            row[j] = draw(st.integers(min_value=-3, max_value=3))
        rows.append(row)
    return _with_dependencies(draw, rows)


@given(st.one_of(_square(), _sparse_square()))
def test_char_poly_matches_elimination_oracle(rows):
    m = Matrix(rows)
    assert char_poly(m) == _elimination_char_poly(m)
    assert det_identity_minus_y(m) == _elimination_det_identity_minus_y(m)


@pytest.mark.parametrize(
    "family",
    [
        lambda n: transfer_matrix(n - 1),
        transfer_inverse,
        lambda n: mirror_tridiagonal(n, 1),
        lambda n: mirror_tridiagonal(n, 2),
    ],
    ids=["transfer", "inverse", "mirror1", "mirror2"],
)
@pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
def test_char_poly_of_the_families_matches_elimination(family, n):
    m = family(n)
    assert char_poly(m) == _elimination_char_poly(m)


@pytest.mark.parametrize("power_sums", [[0, 1], [1, 0, 0], [2, 3, 5, 7]])
def test_power_sums_of_no_integer_matrix_raise(power_sums):
    with pytest.raises(ArithmeticError, match="not a multiple"):
        det_from_power_sums(power_sums)


# -- packed power sums: the digit width bound ---------------------------------


def _dense_power_traces(m):
    """trace(M^r), r = 1..n, from dense products M^r = M^(r-1) @ M."""
    return [p.trace() for p in accumulate(repeat(m, m.order), matmul)]


def _diagonal(entries):
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize(
    "family",
    [
        lambda n: transfer_matrix(n - 1),
        transfer_inverse,
        lambda n: mirror_tridiagonal(n, 1),
        lambda n: mirror_tridiagonal(n, 2),
    ],
    ids=["transfer", "inverse", "mirror1", "mirror2"],
)
@pytest.mark.parametrize("n", range(1, 33))
def test_power_sums_of_the_families_match_dense_powers(family, n):
    m = family(n)
    assert _power_sums(m) == _dense_power_traces(m)


# In each case below some diagonal entry of M^n reaches the width bound
# max(1, ||M||^n) in absolute value, so a digit one bit narrower overflows.
@pytest.mark.parametrize("k", [1, 2, 7, 31])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "entries",
    [
        lambda k, n: [-(2**k)] * n,
        lambda k, n: [2**k - 1] * n,
        lambda k, n: [(-1) ** i * (2**k - 1) for i in range(n)],
        lambda k, n: [(-1) ** (i + 1) * 2**k for i in range(n)],
    ],
    ids=["minus_power_of_two", "power_of_two_minus_one", "alternating_plus_first", "alternating_minus_first"],
)
def test_power_sums_at_the_width_bound(entries, n, k):
    m = _diagonal(entries(k, n))
    assert _power_sums(m) == _dense_power_traces(m)


@pytest.mark.parametrize("k", [1, 5, 40])
@pytest.mark.parametrize("sign", [1, -1])
def test_power_sums_with_a_negative_digit_under_the_diagonal(sign, k):
    # Row 0 reaches the bound; row 1 of every power holds a digit of
    # the opposite sign to its diagonal digit right below it.
    a = 2**k - 1
    m = Matrix([[sign * a, 0, 0], [-sign, sign * (a - 1), 0], [0, sign, -sign * (a - 1)]])
    assert _power_sums(m) == _dense_power_traces(m)


@pytest.mark.parametrize("value", [1, -1, 3, -3, 2**40, -(2**40)])
@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
def test_power_sums_of_a_single_off_diagonal_entry(value, i, j):
    rows = [[0] * 3 for _ in range(3)]
    rows[i][j] = value
    m = Matrix(rows)
    assert _power_sums(m) == _dense_power_traces(m) == [0, 0, 0]


@pytest.mark.parametrize("n", range(5))  # n = 0 is the empty matrix
def test_power_sums_of_the_zero_matrix(n):
    assert _power_sums(Matrix([[0] * n for _ in range(n)])) == [0] * n


@pytest.mark.parametrize("entry", [0, 1, -1, 2**70, -(2**70)])
def test_power_sums_of_order_one(entry):
    assert _power_sums(Matrix([[entry]])) == [entry]


@given(_square(entries=st.integers(min_value=-(2**70), max_value=2**70), max_order=8))
def test_power_sums_match_matrix_powers(rows):
    m = Matrix(rows)
    assert _power_sums(m) == [m.power(r).trace() for r in range(1, m.order + 1)]
