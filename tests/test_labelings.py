"""Direct counters against the enumeration oracle and the matrix forms."""

import itertools
import json
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magiccount.labelings import (
    _line_walk,
    _ring_walk,
    _step,
    CountTable,
    GraphSpec,
    InstanceTooLarge,
    LengthMismatch,
    brute_force_count,
    count_cycle,
    count_line,
    loop_ways,
    transfer_walk,
)
from magiccount.matrices import Matrix, transfer_matrix


@pytest.mark.parametrize("n", [0, 1, 3, 5])
@pytest.mark.parametrize("s", [0, 2, 7])
def test_loop_free_lines_count_s_plus_one(n, s):
    assert count_line(n, 0, s) == s + 1


def test_single_vertex_line_is_a_simplex_count():
    # brute-force region x1 + x2 + x3 <= 4 has C(7, 3) points
    assert count_line(1, 2, 4) == comb(7, 3) == 35


def test_two_vertex_line_matches_transfer_square():
    assert count_line(2, 2, 1) == 10
    assert count_line(2, 2, 1) == transfer_matrix(1).power(2).entry_sum()


def test_one_vertex_cycle_hand_enumerable_values():
    assert count_cycle(1, (2,), 2) == 4
    assert count_cycle(1, (2,), 3) == 6


def test_odd_loop_free_cycle_parity():
    assert count_cycle(3, (0, 0, 0), 3) == 0
    assert count_cycle(3, (0, 0, 0), 4) == 1


def test_two_vertex_cycle_with_single_loops():
    # beta1 + beta2 <= 2 with both loop labels forced: C(4, 2) points
    assert count_cycle(2, (1, 1), 2) == comb(4, 2) == 6


def test_zero_vertex_conventions():
    assert count_line(0, 5, 7) == 8
    assert count_cycle(0, (), 7) == 8


def test_loop_vector_length_is_checked():
    with pytest.raises(LengthMismatch):
        count_cycle(3, (1, 1), 2)
    with pytest.raises(LengthMismatch):
        GraphSpec.cycle(2, (1,))


def test_graph_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec("torus", 2, (1, 1))
    with pytest.raises(ValueError):
        GraphSpec.cycle(0, ())
    with pytest.raises(ValueError):
        GraphSpec.line(2, -1)
    with pytest.raises(ValueError):
        GraphSpec("line", -1, ())
    with pytest.raises(ValueError):
        GraphSpec.cycle(2, (1, -1))


def test_graph_spec_is_an_immutable_value():
    spec = GraphSpec.cycle(3, (1, 2, 1))
    same = GraphSpec("cycle", 3, (1, 2, 1))
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != GraphSpec.cycle(3, (1, 2, 2))
    assert GraphSpec.line(2, 1) != GraphSpec.cycle(2, (1, 1))
    assert spec != ("cycle", 3, (1, 2, 1))
    assert repr(spec) == "GraphSpec(kind='cycle', n=3, loops=(1, 2, 1))"
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        spec.n = 4
    with pytest.raises(AttributeError):
        del spec.loops
    assert (spec.kind, spec.n, spec.loops) == ("cycle", 3, (1, 2, 1))


def test_brute_force_hand_enumerable_values():
    assert brute_force_count(GraphSpec.cycle(1, (2,)), 2) == 4
    assert brute_force_count(GraphSpec.line(0, 3), 7) == 8
    assert brute_force_count(GraphSpec.cycle(2, (1, 1)), 2) == 6


def test_brute_force_caps():
    big = GraphSpec.cycle(4, (2, 2, 2, 2))  # 12 edge variables
    with pytest.raises(InstanceTooLarge):
        brute_force_count(big, 2)
    with pytest.raises(InstanceTooLarge):
        brute_force_count(GraphSpec.line(1, 1), 9)
    assert brute_force_count(big, 2, var_cap=12) == count_cycle(4, (2, 2, 2, 2), 2)


@pytest.mark.parametrize("n", range(0, 4))
@pytest.mark.parametrize("m", range(0, 3))
def test_line_counter_agrees_with_enumeration(n, m):
    spec = GraphSpec.line(n, m)
    for s in range(7):
        assert count_line(n, m, s) == brute_force_count(spec, s, var_cap=12)


@pytest.mark.parametrize("n", range(1, 5))
def test_cycle_counter_agrees_with_enumeration(n):
    for loops in itertools.product((0, 1, 2), repeat=n):
        spec = GraphSpec.cycle(n, loops)
        for s in range(7):
            assert count_cycle(n, loops, s) == brute_force_count(spec, s, var_cap=12)


def test_non_uniform_line_counts():
    # vertex 0 has no loops, so its right label is s minus its left label;
    # vertex 1 then leaves slack b0 for its single loop and the free end
    spec = GraphSpec("line", 2, (0, 1))
    assert [spec.count(s) for s in range(5)] == [1, 3, 6, 10, 15]
    with pytest.raises(ValueError):
        spec.count(-1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["line", "cycle"]),
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=5),
    st.integers(min_value=0, max_value=8),
)
def test_fast_counters_agree_with_enumeration(kind, loops, s):
    n = len(loops)
    assume(kind == "line" or n >= 1)
    spec = GraphSpec(kind, n, tuple(loops))
    assume(spec.incidence()[0] <= 10)  # the default brute-force caps
    expected = brute_force_count(spec, s)
    assert spec.count(s) == expected
    if kind == "cycle":
        assert count_cycle(n, loops, s) == expected
    elif len(set(loops)) <= 1:
        assert count_line(n, loops[0] if loops else 0, s) == expected


# Recorded from the direct O(s^2)-per-vertex convolution DP that the
# prefix-sum kernel replaced.
@pytest.mark.parametrize(
    "count, args, expected",
    [
        (count_cycle, (3, (0, 3, 1), 76), 810940),
        (count_cycle, (6, (2, 2, 1, 0, 1, 3), 46), 2802546737060),
        (count_line, (10, 3, 80), 4683208741114852347504706089919236973548328670916),
    ],
)
def test_large_s_golden_values(count, args, expected):
    assert count(*args) == expected


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("s", range(0, 9))
def test_transfer_matrix_agreement(n, s):
    power = transfer_matrix(s).power(n)
    assert count_line(n, 2, s) == power.entry_sum()
    assert count_cycle(n, (2,) * n, s) == power.trace()


@settings(max_examples=40)
@given(
    st.sampled_from(["line", "cycle"]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10),
)
def test_counts_are_nondecreasing_in_s(kind, n, m, s):
    # Loop-free odd cycles alternate 1, 0, 1, 0, ... by the parity closed
    # form, so they are only monotone with stride 2; everything else is
    # monotone with stride 1 (raise alternate non-loop edges by one).
    if kind == "line":
        assert count_line(n, m, s) <= count_line(n, m, s + 1)
    elif m == 0 and n % 2 == 1:
        assert count_cycle(n, (m,) * n, s) <= count_cycle(n, (m,) * n, s + 2)
    else:
        assert count_cycle(n, (m,) * n, s) <= count_cycle(n, (m,) * n, s + 1)


def test_count_table_round_trips():
    table = CountTable.compute(GraphSpec.cycle(1, (2,)), range(4))
    assert list(table.rows()) == [(0, 1), (1, 2), (2, 4), (3, 6)]
    payload = json.loads(json.dumps(table.to_json_obj()))
    assert payload["counts"]["3"] == "6"
    assert payload["kind"] == "cycle" and payload["loops"] == [2]


def test_count_table_equality_and_repr():
    spec = GraphSpec.cycle(1, (2,))
    table = CountTable.compute(spec, range(2))
    assert table == CountTable(spec, {0: 1, 1: 2})
    assert table != CountTable(spec, {0: 1})
    assert table != CountTable(GraphSpec.line(1, 2), {0: 1, 1: 2})
    assert repr(table) == "CountTable(spec=GraphSpec(kind='cycle', n=1, loops=(2,)), counts={0: 1, 1: 2})"
    empty = CountTable(spec)
    assert empty.counts == {} and empty.counts is not CountTable(spec).counts
    with pytest.raises(TypeError):
        hash(table)  # mutable, like its counts


def test_count_table_entries_are_reproducible():
    spec = GraphSpec.cycle(3, (1, 2, 1))
    table = CountTable.compute(spec, range(6))
    for s, value in table.rows():
        assert value == spec.count(s) == brute_force_count(spec, s, var_cap=12)


# -- the transfer walk against dense matrix powers ----------------------------


@pytest.mark.parametrize("s", range(9))
def test_walk_traces_and_moments_match_dense_powers(s):
    length = s + 2
    traces, moments = transfer_walk(s, length)
    powers = [transfer_matrix(s).power(r) for r in range(length + 1)]
    assert traces == [p.trace() for p in powers]
    assert moments == [p.entry_sum() for p in powers]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=5),
    st.integers(min_value=0, max_value=6),
)
def test_prefix_walks_match_dense_products(loops, s):
    products = [Matrix.identity(s + 1)]
    for k in loops:
        kernel = Matrix([[loop_ways(s - i - j, k) for j in range(s + 1)] for i in range(s + 1)])
        products.append(products[-1] @ kernel)
    assert list(_ring_walk(loops, s)) == [p.trace() for p in products]
    assert [sum(state) for state in _line_walk(loops, s)] == [p.entry_sum() for p in products]


def test_walk_rejects_negative_arguments():
    for args in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            transfer_walk(*args)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=12),
)
def test_label_bits_bound_every_label_of_both_walks(loops, s):
    line, ring = GraphSpec("line", len(loops), tuple(loops)), GraphSpec.cycle(len(loops), loops)
    bits = ring.label_bits(s)
    assert line.label_bits(s) == bits, "the bound reads only the loops and s"
    labels = [max(state) for state in _line_walk(loops, s)]
    rows = [[int(b == b0) for b in range(s + 1)] for b0 in range(s + 1)]
    for k in loops:
        rows = [_step(row, k) for row in rows]
        labels.append(max(map(max, rows)))
    labels += [line.count(s), ring.count(s)]
    assert max(labels).bit_length() <= bits


def test_dp_cells_count_label_words():
    spec = GraphSpec.line(1000, 2)
    # the bound is 1000 log2 C(252, 2) + log2 251 = 14,956.8 bits, 234 words
    assert spec.label_bits(250) == 14957
    assert spec.dp_cells(250) == 3000 * (251 * 252 // 2) * 234
    assert GraphSpec.cycle(1, (2,)).dp_cells(3) == 90, "labels of one word cost one cell"
