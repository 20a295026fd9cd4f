"""Direct exact counting of magic labelings.

A magic labeling assigns a nonnegative integer to every edge so that the
labels incident to each vertex sum to the magic sum s.  Two graph shapes
are supported:

* pseudo-line graphs: n vertices in a row, vertex i touching a left edge,
  a right edge, and its own self-loops (the outermost edges are pendant);
* pseudo-cycle graphs: n vertices in a ring, vertex i touching ring edges
  i and i+1 (mod n) plus its self-loops.  The one-vertex ring is special:
  its single non-loop edge meets the vertex twice, so its label counts
  twice toward the vertex sum.

Loops absorb slack: for fixed adjacent ring/chain labels b, b' the loop
labels at a vertex with k loops contribute C(s-b-b'+k-1, k-1) choices
(stars and bars), with the k = 0 convention that the binomial is 1 when
the slack is 0 and 0 otherwise (the loop-free equality constraint).

The fast counters run a dynamic program over the chain of non-loop
labels, one vertex at a time.  Since C(j+k-1, k-1) is the k-fold prefix
sum of a point mass at 0, one vertex step is k prefix sums of the state
read back in reverse, new[b'] = (P^k state)[s - b'], which costs O(k*s)
instead of the O(s^2) of the direct convolution; it multiplies the state
by the transfer matrix T_k with entries loop_ways(s - i - j, k).  Two
walks run that step over the vertices, and each is read after every
vertex.  The line walk starts from the all-ones state u and sums the
state, giving u^T T_{k_1} ... T_{k_r} u for every prefix r; it costs
O(n*k*s) at each s.  The ring walk starts from a point mass at each of
the s + 1 values b0 of the first edge and reads the state back at b0,
giving trace(T_{k_1} ... T_{k_r}); it costs O(n*k*s^2).  The counters
read the last prefix; ``transfer_walk`` reads every prefix of the
two-loop walks, the traces (ring counts) and all-ones moments (line
counts) of the powers of one transfer matrix, from which the matrix side
builds its polynomials.
``brute_force_count`` enumerates every edge labeling one by one and is
the independent oracle the fast counters are tested against.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, repeat
from math import comb
from typing import Iterable, Iterator, Mapping, Optional, Sequence


#: Work budget of the ``count`` command's DP table, in state cells (see
#: ``cli._check_count_size``).  A cell of small labels costs tens of
#: nanoseconds, so such a table at the budget takes a few seconds.
MAX_DP_CELLS = 10**8


class LengthMismatch(ValueError):
    """Loop vector length does not match the vertex count."""


class InstanceTooLarge(ValueError):
    """Work refused before it starts: the instance exceeds a work budget.

    Raised for brute-force enumeration beyond its caps (raise the caps to
    force it) and, by the command line, for DP tables beyond
    ``MAX_DP_CELLS`` and polytope listings beyond
    ``polytope.MAX_LISTED_CELLS``.
    """


def loop_ways(slack: int, k: int) -> int:
    """Number of ways k loop labels at one vertex can absorb the slack."""
    if slack < 0:
        return 0
    if k == 0:
        return 1 if slack == 0 else 0
    return comb(slack + k - 1, k - 1)


def _step(state: list[int], k: int) -> list[int]:
    """One vertex with k loops: new[b'] = sum_b state[b] * loop_ways(s - b - b', k).

    The kernel loop_ways(j, k) is the k-fold prefix sum of a point mass
    at j = 0, so the sum is (P^k state)[s - b'] for the prefix-sum
    operator P, where s + 1 is the length of ``state``.
    """
    for _ in range(k):
        state = list(accumulate(state))
    return state[::-1]


def _line_walk(loops: Iterable[int], s: int) -> Iterator[list[int]]:
    """The line walk's state before the first vertex and after every vertex.

    The state after r vertices is T_{k_r} ... T_{k_1} u for the all-ones
    u, so its sum is the line count u^T T_{k_1} ... T_{k_r} u of that
    prefix (s + 1 for r = 0).  The walk yields states, not sums, so a
    reader that needs only the last count sums only the last state, and
    it holds one state whatever the number of vertices.
    """
    # state[b] = number of partial labelings with current chain label b
    state = [1] * (s + 1)
    yield state
    for k in loops:
        state = _step(state, k)
        yield state


def _ring_walk(loops: Iterable[int], s: int) -> Iterator[int]:
    """Ring counts of every prefix: trace(T_{k_1} ... T_{k_r}) for r = 0, 1, ...

    Row b0 walks from a point mass at the first-edge value b0, and the
    trace reads each row back at its own b0; r = 0 gives s + 1.  The rows
    advance together, one vertex at a time, so the walk holds (s + 1)^2
    labels whatever the number of vertices.
    """
    rows = [[0] * (s + 1) for _ in range(s + 1)]
    for b0, row in enumerate(rows):
        row[b0] = 1
    yield s + 1
    for k in loops:
        rows = [_step(row, k) for row in rows]
        yield sum(map(list.__getitem__, rows, range(s + 1)))


def count_line(n: int, m: int, s: int) -> int:
    """Magic labelings of the n-vertex pseudo-line with m loops per vertex.

    n = 0 returns s + 1 by convention, which is what keeps the
    transfer-matrix expressions valid at the zeroth power.
    """
    if n < 0 or m < 0 or s < 0:
        raise ValueError("arguments must be nonnegative")
    return sum(deque(_line_walk(repeat(m, n), s), maxlen=1).pop())


def count_cycle(n: int, loops: Sequence[int], s: int) -> int:
    """Magic labelings of the n-vertex pseudo-cycle with loop vector k.

    ``loops[i]`` is the number of self-loops at vertex i.  n = 0 returns
    s + 1 by the same convention as the line case; n = 1 doubles the
    single ring label at its vertex.  Both come out of the one ring walk.
    """
    if n < 0 or s < 0:
        raise ValueError("arguments must be nonnegative")
    loops = tuple(loops)
    if len(loops) != n:
        raise LengthMismatch(f"expected {n} loop counts, got {len(loops)}")
    if any(k < 0 for k in loops):
        raise ValueError("loop counts must be nonnegative")
    return deque(_ring_walk(loops, s), maxlen=1).pop()


def transfer_walk(s: int, length: int) -> tuple[list[int], list[int]]:
    """Traces and all-ones moments of the powers of the transfer matrix.

    One two-loop vertex step multiplies the state by the order-(s+1)
    transfer matrix B.  Returns (traces, moments) with
    traces[r] = trace(B^r), the prefixes of the ring walk, and
    moments[r] = u^T B^r u for the all-ones u, the prefixes of the line
    walk, for r = 0..length.  That is (s + 2) * length steps of O(s)
    each.
    """
    if s < 0 or length < 0:
        raise ValueError("arguments must be nonnegative")
    loops = (2,) * length
    return list(_ring_walk(loops, s)), list(map(sum, _line_walk(loops, s)))


# -- graph description and the enumeration oracle ----------------------------


class GraphSpec:
    """A pseudo-line or pseudo-cycle instance with per-vertex loop counts.

    Immutable and hashable; validated on construction.
    """

    kind: str  # "line" or "cycle"
    n: int
    loops: tuple[int, ...]

    def __init__(self, kind: str, n: int, loops: tuple[int, ...]) -> None:
        if kind not in ("line", "cycle"):
            raise ValueError(f"unknown graph kind {kind!r}")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if kind == "cycle" and n < 1:
            raise ValueError("cycles need at least one vertex")
        if len(loops) != n:
            raise LengthMismatch(f"expected {n} loop counts, got {len(loops)}")
        if any(k < 0 for k in loops):
            raise ValueError("loop counts must be nonnegative")
        vars(self).update(kind=kind, n=n, loops=loops)

    def _key(self) -> tuple[str, int, tuple[int, ...]]:
        return self.kind, self.n, self.loops

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GraphSpec(kind={self.kind!r}, n={self.n!r}, loops={self.loops!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @staticmethod
    def line(n: int, m: int) -> GraphSpec:
        return GraphSpec("line", n, (m,) * n)

    @staticmethod
    def cycle(n: int, loops: Sequence[int]) -> GraphSpec:
        return GraphSpec("cycle", n, tuple(loops))

    def count(self, s: int) -> int:
        """Fast DP count for this instance."""
        if self.kind == "cycle":
            return count_cycle(self.n, self.loops, s)
        # perfbench's spans and counters see the DP only through the public counters
        if len(set(self.loops)) <= 1:
            return count_line(self.n, self.loops[0] if self.loops else 0, s)
        if s < 0:
            raise ValueError("magic sum must be nonnegative")
        return sum(deque(_line_walk(self.loops, s), maxlen=1).pop())

    def incidence(self) -> tuple[int, list[list[int]]]:
        """Edge count and, per vertex, incident edge indices with multiplicity.

        Edge order: non-loop edges first (chain or ring), then loops vertex
        by vertex.  The one-vertex ring lists its ring edge twice.
        """
        if self.kind == "line":
            n_plain = self.n + 1
            slots = [[i, i + 1] for i in range(self.n)]
        elif self.n == 1:
            n_plain = 1
            slots = [[0, 0]]
        else:
            n_plain = self.n
            slots = [[i, (i + 1) % self.n] for i in range(self.n)]
        next_edge = n_plain
        for vertex, k in enumerate(self.loops):
            for _ in range(k):
                slots[vertex].append(next_edge)
                next_edge += 1
        return next_edge, slots


def brute_force_count(spec: GraphSpec, s: int, var_cap: int = 10, s_cap: int = 8) -> int:
    """Count by exhaustively enumerating every valid edge labeling.

    A backtracking scan assigns edges one at a time and abandons a prefix
    as soon as some vertex sum exceeds s, or a fully assigned vertex
    misses it; every valid labeling is visited exactly once.  Instances
    beyond the caps raise InstanceTooLarge rather than run forever.
    """
    if s < 0:
        raise ValueError("magic sum must be nonnegative")
    if spec.kind == "line" and spec.n == 0:
        return s + 1  # convention, nothing to enumerate
    n_edges, slots = spec.incidence()
    if n_edges > var_cap or s > s_cap:
        raise InstanceTooLarge(
            f"{n_edges} edge variables at s={s} exceeds caps ({var_cap}, {s_cap})"
        )
    # vertices that become fully assigned once edge j has a value
    last_edge = [max(edges) for edges in slots]
    finishers: list[list[int]] = [[] for _ in range(n_edges)]
    for vertex, last in enumerate(last_edge):
        finishers[last].append(vertex)
    sums = [0] * spec.n
    multiplicity = [
        [sum(1 for e in slots[v] if e == j) for v in range(spec.n)] for j in range(n_edges)
    ]

    def extend(edge: int) -> int:
        if edge == n_edges:
            return 1
        found = 0
        touched = [v for v in range(spec.n) if multiplicity[edge][v]]
        for value in range(s + 1):
            ok = True
            for v in touched:
                sums[v] += value * multiplicity[edge][v]
                if sums[v] > s:
                    ok = False
            if ok:
                for v in finishers[edge]:
                    if sums[v] != s:
                        ok = False
                        break
            if ok:
                found += extend(edge + 1)
            for v in touched:
                sums[v] -= value * multiplicity[edge][v]
        return found

    return extend(0)


class CountTable:
    """Exact counts h(s) for one graph instance, keyed by magic sum."""

    spec: GraphSpec
    counts: dict[int, int]

    def __init__(self, spec: GraphSpec, counts: Optional[dict[int, int]] = None) -> None:
        self.spec = spec
        self.counts = {} if counts is None else counts

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spec, self.counts) == (other.spec, other.counts)

    def __repr__(self) -> str:
        return f"CountTable(spec={self.spec!r}, counts={self.counts!r})"

    @staticmethod
    def compute(spec: GraphSpec, s_values: Sequence[int]) -> CountTable:
        return CountTable(spec, {s: spec.count(s) for s in s_values})

    def rows(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.counts.items()))

    def to_json_obj(self) -> Mapping[str, object]:
        return {
            "kind": self.spec.kind,
            "n": self.spec.n,
            "loops": list(self.spec.loops),
            "counts": {str(s): str(value) for s, value in self.rows()},
        }
