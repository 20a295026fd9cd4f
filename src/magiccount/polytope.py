"""Stable sets of cycles and the vertex geometry behind the alternating
constant.

The feasible region of the one-loop cycle system, scaled to magic sum 1,
is affinely the fractional stable-set polytope of the n-cycle.  Its
vertices split into one integral vertex per stable set (ring coordinate
1 on the set, loop coordinate 1 exactly on the edges the set misses
entirely) and, for odd n only, the all-halves fractional vertex.  The
fractional vertex together with the vertices of the maximum stable sets
spans a simplex whose lattice-point series 1 / ((1-t)^n (1-t^2)) carries
the entire pole at t = -1.

Stable sets are generated size by size, so every routine costs what it
returns: the size-k sets come straight from k-combinations (Kaplansky's
bijection), never from a scan of all 2^n subsets, and the slice vertices
are built from the maximum stable sets alone.

Everything here is exact: vertices are tuples of ints and Fractions,
independence is a rational rank computation, and the series expansion is
an exact quotient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add, or_
from typing import Optional

from . import matrices
from .poly import Coeff, Poly, coeff_to_str, series_quotient


#: Work budget for listing stable sets or vertices, in sets listed times the
#: cycle length n.  A vertex holds 2n coordinates and a stable set at most
#: n/2 members, so this bounds a listing's time and memory to a factor of 2.
MAX_LISTED_CELLS = 10**7


#: The text of every coordinate a vertex holds, so that a listing renders a
#: coordinate with one dict lookup instead of a ``coeff_to_str`` call.
COORDINATE_TEXT = {0: "0", 1: "1", Fraction(1, 2): "1/2"}


class EvenN(ValueError):
    """Operation is defined for odd cycle lengths only."""


def _check_cycle(n: int) -> None:
    if n < 3:
        raise ValueError("cycle stable sets need n >= 3")


def _path_sets(first: int, last: int, k: int) -> list[tuple[int, ...]]:
    """Size-k sets of first..last with no two consecutive, in lexicographic order.

    Subtracting i from the i-th member maps them, in order, onto the
    k-combinations of first..last-k+1.
    """
    gaps = range(k)
    return [tuple(map(add, c, gaps)) for c in combinations(range(first, last - k + 2), k)]


def stable_sets_of_size(n: int, k: int) -> list[tuple[int, ...]]:
    """The size-k stable sets of the n-cycle, as sorted tuples in lexicographic order.

    Sets holding vertex 0 come first; 0 rules out its neighbours 1 and n-1.
    """
    _check_cycle(n)
    if k == 0:
        return [()]
    with_zero = [(0,) + s for s in _path_sets(2, n - 2, k - 1)]
    return with_zero + _path_sets(1, n - 1, k)


def stable_sets(n: int) -> list[tuple[int, ...]]:
    """All stable sets of the n-cycle, as sorted vertex tuples.

    Includes the empty set.  Vertices are 0-based and adjacency wraps,
    so i and (i+1) mod n can never both appear.  Ordered by size, then
    lexicographically.
    """
    _check_cycle(n)
    return [s for k in range(n // 2 + 1) for s in stable_sets_of_size(n, k)]


def stable_set_sizes(n: int) -> dict[int, int]:
    """Number of stable sets of each size, by enumeration."""
    _check_cycle(n)
    return {k: len(stable_sets_of_size(n, k)) for k in range(n // 2 + 1)}


def kaplansky_count(n: int, k: int) -> int:
    """Closed-form number of size-k stable sets of the n-cycle.

    C(n-k, k) sets avoid vertex 0 and C(n-k-1, k-1) contain it.
    """
    if k == 0:
        return 1
    if k > n // 2:
        return 0
    return comb(n - k, k) + comb(n - k - 1, k - 1)


def max_stable_count(n: int) -> int:
    """Number of maximum stable sets, counted by enumeration."""
    return len(stable_sets_of_size(n, n // 2))


class Vertex:
    """A vertex of the scaled one-loop cycle polytope.

    ``alpha`` holds the loop coordinates, ``beta`` the ring coordinates;
    ``support`` is the defining stable set for integral vertices and None
    for the fractional vertex.  Immutable and hashable.
    """

    alpha: tuple[Coeff, ...]
    beta: tuple[Coeff, ...]
    support: Optional[tuple[int, ...]]

    def __init__(
        self, alpha: tuple[Coeff, ...], beta: tuple[Coeff, ...], support: Optional[tuple[int, ...]]
    ) -> None:
        vars(self).update(alpha=alpha, beta=beta, support=support)

    def _key(self) -> tuple:
        return self.alpha, self.beta, self.support

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Vertex(alpha={self.alpha!r}, beta={self.beta!r}, support={self.support!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def is_fractional(self) -> bool:
        return self.support is None

    def coordinates(self) -> tuple[Coeff, ...]:
        return self.alpha + self.beta

    def beta_total(self) -> Fraction:
        return sum(map(Fraction, self.beta), Fraction(0))

    def check(self) -> None:
        """Defining equalities and nonnegativity, exactly."""
        beta = self.beta
        if len(self.alpha) != len(beta):
            raise AssertionError("vertex has unequal numbers of loop and ring coordinates")
        ring = list(map(add, map(add, beta, self.alpha), beta[1:] + beta[:1]))
        if ring.count(1) != len(ring):
            i = next(i for i, total in enumerate(ring) if total != 1)
            raise AssertionError(f"vertex violates ring equation at {i}")
        if min(self.coordinates(), default=0) < 0:
            raise AssertionError("vertex has a negative coordinate")

    def coordinate_texts(self) -> tuple[list[str], list[str]]:
        """``alpha`` and ``beta`` as ``coeff_to_str`` texts."""
        text = COORDINATE_TEXT.__getitem__
        try:
            return list(map(text, self.alpha)), list(map(text, self.beta))
        except KeyError:
            return list(map(coeff_to_str, self.alpha)), list(map(coeff_to_str, self.beta))

    def to_json_obj(self) -> dict[str, object]:
        alpha, beta = self.coordinate_texts()
        return {
            "alpha": alpha,
            "beta": beta,
            "stable_set": None if self.support is None else list(self.support),
        }


def vertex_for_stable_set(n: int, support: tuple[int, ...]) -> Vertex:
    beta = [0] * n
    for i in support:
        beta[i] = 1
    # loop i is 1 exactly when the set misses both ends of ring edge i
    alpha = map((1).__sub__, map(or_, beta, beta[1:] + beta[:1]))
    return Vertex(alpha=tuple(alpha), beta=tuple(beta), support=tuple(sorted(support)))


def fractional_vertex(n: int) -> Vertex:
    if n % 2 == 0:
        raise EvenN("even cycles have no fractional vertex")
    half = Fraction(1, 2)
    return Vertex(alpha=(0,) * n, beta=(half,) * n, support=None)


def vertices(n: int) -> list[Vertex]:
    """All vertices: one per stable set, plus the fractional one when n is odd."""
    out = [vertex_for_stable_set(n, s) for s in stable_sets(n)]
    if n % 2 == 1:
        out.append(fractional_vertex(n))
    for v in out:
        v.check()
    return out


def hyperplane_vertices(n: int) -> list[Vertex]:
    """Integral vertices on the slice where the ring coordinates sum to (n-1)/2.

    For odd n these are exactly the vertices of the maximum stable sets;
    the fractional vertex sits strictly above the slice and every other
    integral vertex strictly below.
    """
    if n % 2 == 0:
        raise EvenN("the slice construction needs odd n")
    out = [vertex_for_stable_set(n, s) for s in stable_sets_of_size(n, (n - 1) // 2)]
    for v in out:
        v.check()
    return out


def simplex_vertices(n: int) -> list[Vertex]:
    """The n+1 affinely independent points spanning the singular simplex."""
    return hyperplane_vertices(n) + [fractional_vertex(n)]


def affinely_independent(points: list[Vertex]) -> bool:
    """Exact rank test on homogenized coordinates."""
    rows = [list(v.coordinates()) + [1] for v in points]
    return matrices.rational_rank(rows) == len(points)


def simplex_series(n: int, order: int) -> list[Fraction]:
    """Lattice-point series of the singular simplex: 1 / ((1-t)^n (1-t^2))."""
    if n % 2 == 0:
        raise EvenN("the singular simplex exists for odd n only")
    # (1-t)^n cut at degree order: series_quotient reads nothing beyond it
    head = Poly([(-1) ** j * comb(n, j) for j in range(min(n, order) + 1)])
    return series_quotient(Poly((1,)), head * Poly((1, 0, -1)), order)
