"""Stable sets, polytope vertices, and the singular simplex."""

from fractions import Fraction
from functools import cache
from math import comb

import pytest

from magiccount.genfun import alternating_limit, cycle_series, quasipoly_fit
from magiccount.polytope import (
    EvenN,
    Vertex,
    affinely_independent,
    fractional_vertex,
    hyperplane_vertices,
    kaplansky_count,
    max_stable_count,
    simplex_series,
    simplex_vertices,
    stable_set_sizes,
    stable_sets,
    stable_sets_of_size,
    vertex_for_stable_set,
    vertices,
)
from magiccount.poly import Poly, coeff_to_str, series_quotient


@cache
def _bitmask_scan(n):
    """Oracle: every subset of the n-cycle's vertices, kept when no two are adjacent."""
    found = []
    for mask in range(1 << n):
        if any(mask >> i & 1 and mask >> ((i + 1) % n) & 1 for i in range(n)):
            continue
        found.append(tuple(i for i in range(n) if mask >> i & 1))
    found.sort(key=lambda s: (len(s), s))
    return found


def test_triangle_stable_sets():
    assert stable_sets(3) == [(), (0,), (1,), (2,)]


def test_pentagon_pairs():
    assert stable_set_sizes(5)[2] == 5


def test_square_pairs_are_the_two_diagonals():
    assert [s for s in stable_sets(4) if len(s) == 2] == [(0, 2), (1, 3)]


@pytest.mark.parametrize("n", range(3, 17))
def test_stable_sets_match_the_bitmask_scan_in_order(n):
    assert stable_sets(n) == _bitmask_scan(n)


@pytest.mark.parametrize("n", range(3, 17))
def test_kaplansky_counts_match_the_bitmask_scan(n):
    sets = _bitmask_scan(n)
    for k in range(n + 1):
        assert kaplansky_count(n, k) == sum(1 for s in sets if len(s) == k)


@pytest.mark.parametrize("n", (-1, 0, 1, 2))
def test_stable_sets_need_a_cycle(n):
    with pytest.raises(ValueError, match="n >= 3"):
        stable_sets(n)
    with pytest.raises(ValueError, match="n >= 3"):
        stable_sets_of_size(n, 0)


@pytest.mark.parametrize("n", range(3, 13))
def test_size_counts_match_the_closed_formula(n):
    sizes = stable_set_sizes(n)
    for k in range(0, n):
        assert sizes.get(k, 0) == kaplansky_count(n, k)


@pytest.mark.parametrize(
    "n, expected", [(3, 3), (4, 2), (5, 5), (6, 2), (7, 7), (8, 2), (9, 9), (10, 2), (11, 11), (12, 2)]
)
def test_maximum_stable_set_counts(n, expected):
    assert max_stable_count(n) == expected


def test_triangle_vertices_exact_coordinates():
    coords = {v.coordinates() for v in vertices(3)}
    half = Fraction(1, 2)
    assert coords == {
        (1, 1, 1, 0, 0, 0),
        (0, 1, 0, 1, 0, 0),
        (0, 0, 1, 0, 1, 0),
        (1, 0, 0, 0, 0, 1),
        (0, 0, 0, half, half, half),
    }


def test_square_has_seven_integral_vertices():
    vs = vertices(4)
    assert len(vs) == 7
    assert not any(v.is_fractional for v in vs)


@pytest.mark.parametrize("n", range(3, 11))
def test_vertex_count_is_stable_sets_plus_parity(n):
    assert len(vertices(n)) == len(stable_sets(n)) + (n % 2)


@pytest.mark.parametrize("n", range(3, 9))
def test_every_vertex_satisfies_the_ring_equations(n):
    for v in vertices(n):
        v.check()  # raises on any violation


def test_triangle_hyperplane_vertices_are_the_singletons():
    assert [v.support for v in hyperplane_vertices(3)] == [(0,), (1,), (2,)]


def test_pentagon_hyperplane_vertices():
    vs = hyperplane_vertices(5)
    assert len(vs) == 5
    assert all(v.beta_total() == 2 for v in vs)


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_hyperplane_separates_the_vertices(n):
    level = Fraction(n - 1, 2)
    on_plane = {v.coordinates() for v in hyperplane_vertices(n)}
    assert fractional_vertex(n).beta_total() > level
    for v in vertices(n):
        if v.is_fractional or v.coordinates() in on_plane:
            continue
        assert v.beta_total() < level


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_hyperplane_vertices_are_the_slice_of_all_vertices(n):
    level = Fraction(n - 1, 2)
    expected = [v for v in vertices(n) if not v.is_fractional and v.beta_total() == level]
    assert hyperplane_vertices(n) == expected


def test_hyperplane_vertices_at_large_n():
    vs = hyperplane_vertices(2001)
    assert len(vs) == 2001
    assert len({v.support for v in vs}) == 2001
    assert all(len(v.support) == 1000 for v in vs)


def test_check_rejects_a_broken_vertex():
    with pytest.raises(AssertionError, match="ring equation at 1"):
        Vertex(alpha=(0, 0, 1), beta=(1, 0, 0), support=(0,)).check()
    with pytest.raises(AssertionError, match="ring equation at 0"):
        vertex_for_stable_set(4, (0, 1)).check()  # adjacent vertices are not stable
    with pytest.raises(AssertionError, match="negative coordinate"):
        Vertex(alpha=(-1, -1, -1), beta=(1, 1, 1), support=None).check()
    with pytest.raises(AssertionError, match="unequal numbers"):
        Vertex(alpha=(1, 1), beta=(0, 0, 0), support=()).check()


@pytest.mark.parametrize(
    "vertex",
    [
        fractional_vertex(5),
        vertex_for_stable_set(6, (1, 4)),
        Vertex(alpha=(Fraction(1, 3), 2, True), beta=(Fraction(4, 2), 0, Fraction(-1, 2)), support=None),
        Vertex(alpha=(1, Fraction(1, 2)), beta=(7, 0), support=()),
    ],
)
def test_coordinate_texts_agree_with_coeff_to_str(vertex):
    """Coordinates outside the table take the coeff_to_str path for the whole vertex."""
    alpha, beta = vertex.coordinate_texts()
    assert alpha == list(map(coeff_to_str, vertex.alpha))
    assert beta == list(map(coeff_to_str, vertex.beta))
    assert vertex.to_json_obj()["alpha"] == alpha and vertex.to_json_obj()["beta"] == beta


def test_vertex_is_an_immutable_value():
    v = vertex_for_stable_set(3, (0,))
    same = Vertex(alpha=(0, 1, 0), beta=(1, 0, 0), support=(0,))
    assert v == same and hash(v) == hash(same) and len({v, same}) == 1
    assert v != vertex_for_stable_set(3, (1,))
    assert fractional_vertex(3) == Vertex((0, 0, 0), (Fraction(1, 2),) * 3, None)
    assert v != ((0, 1, 0), (1, 0, 0), (0,))
    assert repr(v) == "Vertex(alpha=(0, 1, 0), beta=(1, 0, 0), support=(0,))"
    with pytest.raises(AttributeError, match="cannot assign to field 'support'"):
        v.support = None
    with pytest.raises(AttributeError):
        del v.alpha
    assert v.support == (0,)


def test_hyperplane_requires_odd_n():
    with pytest.raises(EvenN):
        hyperplane_vertices(4)


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_simplex_vertices_are_affinely_independent(n):
    points = simplex_vertices(n)
    assert len(points) == n + 1
    assert affinely_independent(points)


def test_dependent_points_are_detected():
    vs = vertices(4)  # 7 points in a 4-dimensional affine hull
    assert not affinely_independent(vs)


def test_simplex_series_values():
    assert simplex_series(3, 2) == [1, 3, 7]
    assert simplex_series(3, 0) == [1]
    assert simplex_series(5, 1) == [1, 5]


def test_simplex_series_of_a_large_simplex():
    # 1 / ((1-t)^n (1-t^2)) = Sum_s Sum_i C(s - 2i + n - 1, n - 1) t^s
    n, order = 20001, 10
    expected = [sum(comb(s - 2 * i + n - 1, n - 1) for i in range(s // 2 + 1)) for s in range(order + 1)]
    assert simplex_series(n, order) == expected


@pytest.mark.parametrize("n", range(1, 40, 2))
def test_simplex_series_matches_the_full_expansion(n):
    order = 49
    full = series_quotient(Poly((1,)), Poly((1, -1)) ** n * Poly((1, 0, -1)), order)
    assert [simplex_series(n, k) for k in range(order + 1)] == [full[: k + 1] for k in range(order + 1)]


def test_simplex_series_requires_odd_n():
    with pytest.raises(EvenN):
        simplex_series(4, 3)


@pytest.mark.parametrize("n", (3, 5))
def test_cycle_minus_simplex_has_no_alternating_part(n):
    # the simplex carries the entire pole at t = -1 of the one-loop cycle series
    order = n + 12
    counts = cycle_series(n, (1,) * n, order)
    simplex = simplex_series(n, order)
    difference = {s: int(counts[s] - simplex[s]) for s in range(order + 1)}
    fit = quasipoly_fit(difference, n)
    assert fit.psi == 0
    assert alternating_limit(fit) == 0
