"""The recurrence families and the identity catalog."""

import pytest

from magiccount import matrices, poly, recurrences
from magiccount.matrices import (
    adjugate_allones_form,
    char_poly,
    det_identity_minus_y,
    mirror_tridiagonal,
    transfer_inverse,
    transfer_matrix,
)
from magiccount.poly import Poly
from magiccount.recurrences import (
    CATALOG,
    UnknownIdentity,
    _transfer_pair,
    gf_denominator,
    gf_numerator,
    verify_all,
    verify_identity,
)


def test_seed_values():
    assert gf_numerator(0) == Poly((1,))
    assert gf_numerator(1) == Poly((2,))
    assert gf_numerator(2) == Poly((3, -2))
    assert gf_numerator(3) == Poly((4, -4, -2))
    assert gf_denominator(0) == Poly((1, -1))
    assert gf_denominator(1) == Poly((1, -2, -1))
    assert gf_denominator(2) == Poly((1, -4, -2, 1))
    assert gf_denominator(3) == Poly((1, -6, -7, 2, 1))


def test_first_recurrence_step():
    # one application of the four-term recurrence beyond the seeds
    assert gf_denominator(4) == Poly((1, -9, -12, 10, 2, -1))


def test_numerator_constant_term_is_s_plus_one():
    # forced by the zero-vertex convention for the series these divide
    for s in range(0, 11):
        assert gf_numerator(s).coefficient(0) == s + 1
        assert gf_denominator(s).coefficient(0) == 1


def test_catalog_has_thirteen_identities():
    assert len(CATALOG) == 13


@pytest.mark.parametrize("identity_id", sorted(CATALOG))
def test_identity_holds_to_twelve(identity_id):
    report = verify_identity(identity_id, stop=12)
    failure = report.first_failure
    assert report.all_hold, (
        f"{identity_id} fails at {failure.index}: {failure.diff.to_text()}"
    )
    assert len(report.checks) == 12 - report.start + 1


def test_verify_all_covers_the_catalog():
    reports = verify_all(stop=10)
    assert [r.identity_id for r in reports] == list(CATALOG)
    assert all(r.all_hold for r in reports)


def test_verify_identity_stops_at_twelve_by_default():
    report = verify_identity("inv-eq-mirror1")
    assert (report.start, report.stop) == (1, 12)
    assert [c.index for c in report.checks] == list(range(1, 13))


def test_minimum_indices_are_respected():
    report = verify_identity("inv-from-mirror2", stop=12, start=1)
    assert report.start == 5  # below-range indices are skipped, not failed
    assert report.all_hold


def test_range_below_the_minimum_does_not_hold():
    report = verify_identity("form-only-rec", stop=3)
    assert report.checks == ()
    assert not report.all_hold
    assert report.to_json_obj()["holds"] is False


def test_unknown_identity_raises():
    with pytest.raises(UnknownIdentity):
        verify_identity("no-such-identity")


def test_series_bridge_explicitly():
    from magiccount.matrices import adjugate_allones_form, det_identity_minus_y, transfer_matrix

    for s in range(0, 11):
        assert gf_denominator(s) == det_identity_minus_y(transfer_matrix(s))
        assert gf_numerator(s) == adjugate_allones_form(transfer_matrix(s))


@pytest.mark.parametrize("n", range(1, 15))
def test_allones_form_from_line_counts_matches_bordered_determinant(n):
    assert _transfer_pair(n)[1] == adjugate_allones_form(transfer_matrix(n - 1))


@pytest.mark.parametrize("n", range(5, 13))
def test_inverse_variant_of_the_mirror_difference_identity(n):
    # entailed by the catalog's difference identity and the char-poly equality
    lhs = char_poly(transfer_inverse(n)) - char_poly(transfer_inverse(n - 2))
    rhs = char_poly(mirror_tridiagonal(n, 2)) + char_poly(mirror_tridiagonal(n - 2, 2))
    assert lhs == rhs


def test_report_json_shape():
    report = verify_identity("inv-eq-mirror1", stop=4)
    payload = report.to_json_obj()
    assert payload["holds"] is True
    assert payload["checked"] == 4
    assert payload["first_failure"] is None


@pytest.mark.parametrize("n", range(1, 26))
def test_resolvent_det_from_the_walk_matches_the_dense_matrix(n):
    assert _transfer_pair(n)[0] == det_identity_minus_y(transfer_matrix(n - 1))


def _clear_matrix_side_caches():
    for cached in (recurrences._char_mirror, recurrences._char_inverse, recurrences._transfer_pair):
        cached.cache_clear()


@pytest.fixture
def cold_matrix_side():
    _clear_matrix_side_caches()
    yield
    _clear_matrix_side_caches()


def test_catalog_runs_no_elimination_or_interpolation(monkeypatch, cold_matrix_side):
    def refuse(*_args):
        raise AssertionError("elimination or interpolation on the verify path")

    monkeypatch.setattr(matrices, "det", refuse)
    monkeypatch.setattr(matrices, "interpolate", refuse)
    monkeypatch.setattr(poly, "interpolate", refuse)
    reports = verify_all(stop=30)
    assert [r.identity_id for r in reports] == list(CATALOG)
    for r in reports:
        assert r.all_hold, r.identity_id
        assert len(r.checks) == 30 - CATALOG[r.identity_id].min_index + 1
