"""Acceptance suite: one test per criterion, exact equality throughout.

Every comparison is integer or rational equality, tolerance zero.  Each
criterion prints its own PASS/FAIL line; run with ``pytest -s`` to see
them stream, or plain ``pytest`` to rely on the per-test verdicts.
"""

import itertools
from contextlib import contextmanager
from fractions import Fraction

from magiccount.genfun import (
    ehrhart_numerator,
    fit_cycle,
    line_series_in_y,
    cycle_series_in_y,
    psi_formula,
    psi_limit_check,
)
from magiccount.labelings import count_cycle, count_line
from magiccount.matrices import (
    adjugate_allones_form,
    det_identity_minus_y,
    transfer_matrix,
)
from magiccount.poly import Poly, series_quotient
from magiccount.polytope import (
    affinely_independent,
    kaplansky_count,
    max_stable_count,
    simplex_vertices,
    stable_set_sizes,
    stable_sets,
    vertices,
)
from magiccount.recurrences import CATALOG, gf_denominator, gf_numerator, verify_all


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {description}")
        raise
    print(f"PASS  criterion {number:2d}: {description}")


def test_criterion_01_one_vertex_cycle_counts():
    with criterion(1, "one-vertex cycle counts match hand enumeration"):
        assert count_cycle(1, (2,), 2) == 4
        assert count_cycle(1, (2,), 3) == 6


def test_criterion_02_transfer_matrix_equivalence():
    with criterion(2, "162 paired transfer-matrix checks, n and s up to 8"):
        pairs = 0
        for s in range(9):
            base = transfer_matrix(s)
            for n in range(9):
                power = base.power(n)
                assert count_line(n, 2, s) == power.entry_sum()
                assert count_cycle(n, (2,) * n, s) == power.trace()
                pairs += 2
        assert pairs == 162


def test_criterion_03_line_series_and_index_bridge():
    with criterion(3, "line series equals counts; recurrence families equal matrix forms"):
        for s in range(9):
            assert line_series_in_y(s, 8) == [count_line(n, 2, s) for n in range(9)]
        # anchors: the first four members of both matrix-side families
        assert det_identity_minus_y(transfer_matrix(0)) == Poly((1, -1))
        assert det_identity_minus_y(transfer_matrix(1)) == Poly((1, -2, -1))
        assert det_identity_minus_y(transfer_matrix(2)) == Poly((1, -4, -2, 1))
        assert det_identity_minus_y(transfer_matrix(3)) == Poly((1, -6, -7, 2, 1))
        assert adjugate_allones_form(transfer_matrix(0)) == Poly((1,))
        assert adjugate_allones_form(transfer_matrix(1)) == Poly((2,))
        assert adjugate_allones_form(transfer_matrix(2)) == Poly((3, -2))
        assert adjugate_allones_form(transfer_matrix(3)) == Poly((4, -4, -2))
        for s in range(11):
            assert gf_denominator(s) == det_identity_minus_y(transfer_matrix(s))
            assert gf_numerator(s) == adjugate_allones_form(transfer_matrix(s))


def test_criterion_04_cycle_series():
    with criterion(4, "cycle series equals counts and starts at s + 1"):
        for s in range(9):
            series = cycle_series_in_y(s, 8)
            assert series[0] == s + 1
            assert series == [count_cycle(n, (2,) * n, s) for n in range(9)]


def test_criterion_05_identity_catalog():
    with criterion(5, "all 13 cataloged identities hold exactly up to n = 12"):
        reports = verify_all(stop=12)
        assert len(reports) == len(CATALOG) == 13
        for report in reports:
            failure = report.first_failure
            assert report.all_hold, (
                f"{report.identity_id} fails at {failure.index}: "
                f"difference {failure.diff.to_text()}"
            )


def test_criterion_06_numerator_tables():
    with criterion(6, "numerator coefficient tables, both families"):
        line_rows = {
            0: (1,),
            1: (1,),
            2: (1, 4, 1),
            3: (1, 16, 37, 16, 1),
            4: (1, 48, 351, 656, 351, 48, 1),
            5: (1, 128, 2286, 11120, 18471, 11120, 2286, 128, 1),
            6: (1, 324, 12530, 130420, 490309, 753488, 490309, 130420, 12530, 324, 1),
        }
        for n, row in line_rows.items():
            assert ehrhart_numerator("line", n).coefficients() == row
        cycle_rows = {
            0: (1,),
            1: (1,),
            2: (1, 1),
            3: (1, 8, 15, 8, 1),
            4: (1, 25, 106, 106, 25, 1),
        }
        for n, row in cycle_rows.items():
            assert ehrhart_numerator("cycle", n).coefficients() == row
        five = ehrhart_numerator("cycle", 5)
        assert five.numerator.is_palindromic()
        assert five.coefficients()[:5] == (1, 72, 878, 3304, 4995)


def test_criterion_07_alternating_constant_for_all_small_loop_vectors():
    with criterion(7, "fits recover degree and alternating constant, 30 loop vectors"):
        holdout = 10
        fitted = 0
        for n in range(1, 5):
            for loops in itertools.product((1, 2), repeat=n):
                fit = fit_cycle(n, loops, holdout=holdout)
                assert Poly(fit.phi).degree == sum(loops)
                assert fit.psi == psi_formula(n, loops)
                top = fit.degree + 1 + holdout
                for s in range(top + 1):
                    assert fit.evaluate(s) == count_cycle(n, loops, s)
                fitted += 1
        assert fitted == 30


def test_criterion_08_three_cycle_closed_form():
    with criterion(8, "closed form of the one-loop triangle series, and its limit"):
        numerator = Poly((1, 1, 1))
        denominator = Poly((1, 1)) * Poly((1, -1)) ** 4  # h(0) = 1 normalization
        expansion = series_quotient(numerator, denominator, 12)
        assert expansion == [count_cycle(3, (1, 1, 1), s) for s in range(13)]
        assert psi_limit_check(3, (1, 1, 1)) == Fraction(1, 16)


def test_criterion_09_polytope_geometry():
    with criterion(9, "vertex families, stable-set counts, affine independence"):
        half = Fraction(1, 2)
        assert {v.coordinates() for v in vertices(3)} == {
            (1, 1, 1, 0, 0, 0),
            (0, 1, 0, 1, 0, 0),
            (0, 0, 1, 0, 1, 0),
            (1, 0, 0, 0, 0, 1),
            (0, 0, 0, half, half, half),
        }
        for n in range(3, 11):
            assert len(vertices(n)) == len(stable_sets(n)) + (n % 2)
        for n in range(3, 13):
            assert max_stable_count(n) == (2 if n % 2 == 0 else n)
            sizes = stable_set_sizes(n)
            for k in range(0, n):
                assert sizes.get(k, 0) == kaplansky_count(n, k)
        for n in (3, 5, 7, 9):
            assert affinely_independent(simplex_vertices(n))


def test_criterion_10_loop_free_closed_forms():
    with criterion(10, "loop-free lines and cycles match the closed forms"):
        for n in range(0, 7):
            for s in range(0, 9):
                assert count_line(n, 0, s) == s + 1
                if n == 0:
                    assert count_cycle(0, (), s) == s + 1
                elif n % 2 == 0:
                    assert count_cycle(n, (0,) * n, s) == s + 1
                else:
                    assert count_cycle(n, (0,) * n, s) == (1 + (-1) ** s) // 2
