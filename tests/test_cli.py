"""Command-line surface: outputs, formats, exit codes."""

import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from magiccount import cli, genfun, labelings, poly, polytope, recurrences
from magiccount.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_cycle_small_rows(capsys):
    code, out, _ = run(capsys, "count", "--cycle", "-n", "1", "-k", "2", "--s-max", "3", "--format", "csv")
    assert code == 0
    assert out == "s,count\n0,1\n1,2\n2,4\n3,6\n"


def test_count_line_convention_rows(capsys):
    code, out, _ = run(capsys, "count", "--line", "-n", "0", "-m", "2", "--s-max", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,2", "2,3"]


def test_count_loop_free_odd_cycle(capsys):
    code, out, _ = run(capsys, "count", "--cycle", "-n", "3", "-k", "0,0,0", "--s-max", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,0"]


def test_count_brute_agrees_with_fast_path(capsys):
    code, fast, _ = run(capsys, "count", "--cycle", "-n", "2", "-k", "1,2", "--s-max", "5", "--format", "csv")
    assert code == 0
    code, brute, _ = run(capsys, "count", "--cycle", "-n", "2", "-k", "1,2", "--s-max", "5", "--brute", "--format", "csv")
    assert code == 0
    assert fast == brute


def test_count_brute_cap_exit_code(capsys):
    code, _, err = run(capsys, "count", "--cycle", "-n", "4", "-k", "2", "--brute", "--s-max", "2")
    assert code == 3
    assert "exceeds caps" in err


def test_count_brute_cap_defaults_to_ten_edges(capsys):
    # three ring edges plus seven loops is ten edge variables; one more loop is eleven
    argv = ("count", "--cycle", "-n", "3", "-k", "3,2,2", "--s-max", "1", "--format", "csv")
    code, brute, err = run(capsys, *argv, "--brute")
    assert code == 0, err
    assert brute == run(capsys, *argv)[1] == "s,count\n0,1\n1,19\n"
    code, out, err = run(capsys, "count", "--cycle", "-n", "3", "-k", "3,3,2", "--brute", "--s-max", "1")
    assert code == 3
    assert out == ""
    assert "11 edge variables at s=0 exceeds caps (10, 8)" in err


def test_count_over_dp_budget_exits_three_before_any_work(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--line", "-n", "1", "-m", "6000", "--s-max", "4000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "argument --s-max:" in err and "work budget" in err


@pytest.mark.parametrize(
    "argv, cells",
    [
        # (2 loops + 1 vertex) * (1 + 4 + 9 + 16) ring cells
        (("count", "--cycle", "-n", "1", "-k", "2", "--s-max", "3"), 90),
        # (2 loops + 2 vertices) * (1 + 2 + 3) line cells
        (("count", "--line", "-n", "2", "-m", "1", "--s-max", "2"), 24),
    ],
)
def test_count_dp_budget_boundary(capsys, monkeypatch, argv, cells):
    monkeypatch.setattr(labelings, "MAX_DP_CELLS", cells)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(labelings, "MAX_DP_CELLS", cells - 1)
    assert run(capsys, *argv)[0] == 3
    assert run(capsys, *argv, "--brute")[0] == 0, "the enumeration has its own caps"


def test_count_bad_loop_vector_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--cycle", "-n", "3", "-k", "1,2")
    assert code == 2
    assert "loop vector" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--cycle", "-n", "3", "-k", "a,b"),
        ("count", "--cycle", "-n", "3", "-k", "1,,2"),
        ("count", "--cycle", "-n", "3", "-k", ""),
        ("fit", "-n", "2", "-k", "1,x"),
        ("series", "--cycle", "-n", "2", "-k", "1,", "--order", "2"),
    ],
)
def test_malformed_loop_vector_names_the_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "argument -k: expected comma-separated integers" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("count", "--cycle", "-n", "3", "--s-max", "-1"), "--s-max"),
        (("count", "--line", "-n", "-2"), "-n"),
        (("count", "--line", "-n", "2", "-m", "-1"), "-m"),
        (("table", "--ec", "-n", "-1"), "-n"),
        (("table", "--el", "--n-max", "-1"), "--n-max"),
        (("table", "--el", "-n", "2", "--order", "-1"), "--order"),
        (("verify", "--n-max", "-1"), "--n-max"),
        (("fit", "-n", "-1", "-k", "1"), "-n"),
        (("fit", "-n", "2", "-k", "1", "--holdout", "-1"), "--holdout"),
        (("series", "--cycle", "-s", "-1"), "-s"),
        (("series", "--cycle", "-s", "2", "--order", "-1"), "--order"),
        (("series", "--cycle", "-n", "-1", "-k", "1"), "-n"),
        (("polytope", "-n", "-1"), "-n"),
        (("polytope", "-n", "3", "--series", "-1"), "--series"),
        (("count", "--cycle", "-n", "2", "--brute", "--brute-cap", "-1"), "--brute-cap"),
        (("count", "--cycle", "-n", "2", "--brute", "--brute-s-cap", "-1"), "--brute-s-cap"),
    ],
)
def test_negative_sizes_are_usage_errors(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {option}: must be nonnegative, got -" in err


def test_non_integer_size_is_usage_error(capsys):
    code, out, err = run(capsys, "count", "--cycle", "-n", "3", "--s-max", "x")
    assert code == 2
    assert out == ""
    assert "argument --s-max: invalid int value: 'x'" in err


def test_zero_sizes_are_accepted(capsys):
    code, out, _ = run(capsys, "count", "--cycle", "-n", "3", "-k", "1", "--s-max", "0", "--format", "csv")
    assert code == 0
    assert out == "s,count\n0,1\n"


def test_count_cycle_loop_vector_defaults_to_two(capsys):
    _, default, _ = run(capsys, "count", "--cycle", "-n", "2", "--s-max", "3", "--format", "csv")
    _, explicit, _ = run(capsys, "count", "--cycle", "-n", "2", "-k", "2", "--s-max", "3", "--format", "csv")
    assert default == explicit


def test_count_line_loops_default_to_two(capsys):
    _, default, _ = run(capsys, "count", "--line", "-n", "2", "--s-max", "3", "--format", "csv")
    _, explicit, _ = run(capsys, "count", "--line", "-n", "2", "-m", "2", "--s-max", "3", "--format", "csv")
    assert default == explicit
    assert default.splitlines()[1:] == ["0,1", "1,10", "2,46", "3,146"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "--line", "-n", "2", "-k", "a,b", "--s-max", "1"), "argument -k: not allowed with argument --line"),
        (("count", "--line", "-n", "2", "-k", "2"), "argument -k: not allowed with argument --line"),
        (("series", "--cycle", "-s", "2", "-n", "3", "-k", "1", "--order", "1"), "argument -n: not allowed with argument -s"),
        (("series", "--line", "-s", "2", "-k", "1"), "argument -k: not allowed with argument -s"),
        (("polytope", "-n", "3", "--stable", "--hyperplane"), "argument --hyperplane: not allowed with argument --stable"),
        (("polytope", "-n", "3", "--stable", "--series", "3"), "argument --series: not allowed with argument --stable"),
        (("polytope", "-n", "3", "--hyperplane", "--series", "3"), "argument --series: not allowed with argument --hyperplane"),
        (("polytope", "-n", "2"), "argument -n: the cycle needs n >= 3, got 2"),
        (("polytope", "-n", "0", "--stable"), "argument -n: the cycle needs n >= 3, got 0"),
        (("polytope", "-n", "1", "--hyperplane"), "argument -n: the cycle needs n >= 3, got 1"),
        (("polytope", "-n", "4", "--hyperplane"), "argument -n: --hyperplane needs odd n, got 4"),
        (("polytope", "-n", "4", "--series", "2"), "argument -n: --series needs odd n, got 4"),
        (
            ("count", "--cycle", "-n", "2", "-m", "5", "--s-max", "2"),
            "argument -m: not allowed with argument --cycle; give loops per vertex with -k",
        ),
        (("table", "--ec", "-n", "3", "--order", "7"), "argument --order: must be at least 8 for n=3, got 7"),
        (("table", "--el", "--n-max", "4", "--order", "9"), "argument --order: must be at least 10 for n=4, got 9"),
    ],
)
def test_ignored_or_invalid_option_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [("polytope", "-n", "40"), ("polytope", "-n", "27", "--stable"), ("polytope", "-n", "3163", "--hyperplane")],
)
def test_polytope_listing_over_budget_exits_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "argument -n:" in err and "work budget" in err


def test_polytope_budget_boundary(capsys, monkeypatch):
    # n = 5 lists 11 stable sets: 55 set-vertex cells
    monkeypatch.setattr(polytope, "MAX_LISTED_CELLS", 55)
    assert run(capsys, "polytope", "-n", "5", "--stable")[0] == 0
    monkeypatch.setattr(polytope, "MAX_LISTED_CELLS", 54)
    assert run(capsys, "polytope", "-n", "5", "--stable")[0] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("polytope", "-n", "21"),
        ("polytope", "-n", "21", "--stable"),
        ("polytope", "-n", "2001", "--hyperplane"),
        ("polytope", "-n", "25", "--stable"),
    ],
)
def test_polytope_budget_admits_large_listings(capsys, monkeypatch, argv):
    # only the budget is under test, so the listing itself is stubbed out
    for name in ("stable_sets", "vertices", "hyperplane_vertices"):
        monkeypatch.setattr(polytope, name, lambda n: [])
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_polytope_series_accepts_any_odd_n(capsys):
    code, out, _ = run(capsys, "polytope", "-n", "1", "--series", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,1", "2,2", "3,2"]


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--n-max", "10")
    assert code == 0
    assert out.count("pass") == 13


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--id", "inv-eq-mirror1", "--n-max", "6")
    assert code == 0
    assert "inv-eq-mirror1" in out and "6" in out


@pytest.mark.parametrize(
    "argv, identity, first",
    [
        (("verify", "--n-max", "2"), "inv-from-mirror2", 5),
        (("verify", "--id", "form-only-rec", "--n-max", "3", "--format", "json"), "form-only-rec", 5),
        (("verify", "--id", "inv-eq-mirror1", "--id", "mirror2-only-rec", "--n-max", "4"), "mirror2-only-rec", 5),
        (("verify", "--id", "inv-eq-mirror1", "--n-max", "0"), "inv-eq-mirror1", 1),
    ],
)
def test_verify_below_first_index_is_usage_error(capsys, argv, identity, first):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "argument --n-max:" in err
    assert f"below the first index {first} of identity {identity}" in err


def test_verify_at_first_index_checks_one(capsys):
    code, out, _ = run(capsys, "verify", "--id", "form-only-rec", "--n-max", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_hold"] is True
    assert payload["reports"][0]["checked"] == 1


def test_verify_n_max_defaults_to_twelve(capsys):
    code, out, _ = run(capsys, "verify", "--id", "inv-eq-mirror1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "inv-eq-mirror1,1..12,12,pass,"


@pytest.fixture
def cold_transfer_family():
    recurrences._transfer_pair.cache_clear()
    yield
    recurrences._transfer_pair.cache_clear()


def test_arithmetic_fault_is_an_internal_error(capsys, monkeypatch, cold_transfer_family):
    # traces 0, 1 give 2 c_2 = -1 for det(I - yB): power sums of no integer matrix
    def broken_walk(s, length):
        return [s + 1, 0, 1] + [0] * (length - 2), [s + 1] * (length + 1)

    monkeypatch.setattr(recurrences, "transfer_walk", broken_walk)
    code, out, err = run(capsys, "verify", "--id", "det-only-rec", "--n-max", "5")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ")
    assert "-1 is not a multiple of 2" in err


def test_verify_unknown_identity_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--id", "unknown")
    assert code == 2


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (labelings.InstanceTooLarge, 3, "error"),
        (genfun.NotStabilized, 1, "error"),
        (genfun.InconsistentSamples, 1, "error"),
        (ArithmeticError, 4, "internal error"),
        (poly.ZeroConstantTerm, 4, "internal error"),
        (recurrences.UnknownIdentity, 2, "error"),
        (labelings.LengthMismatch, 2, "error"),
        (ValueError, 2, "error"),
    ],
)
def test_library_errors_map_to_exit_codes(capsys, monkeypatch, error, code, prefix):
    def raise_it(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_count", raise_it)
    status, out, err = run(capsys, "count", "--cycle", "-n", "1")
    assert status == code
    assert out == ""
    assert err.startswith(f"{prefix}: ") and "boom" in err


def test_unmapped_errors_propagate(capsys, monkeypatch):
    def raise_it(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "_cmd_count", raise_it)
    with pytest.raises(KeyError):
        main(["count", "--cycle", "-n", "1"])


def test_table_line_rows(capsys):
    code, out, _ = run(capsys, "table", "--el", "--n-max", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == [
        "0,1",
        "1,1",
        "2,1;4;1",
        "3,1;16;37;16;1",
        "4,1;48;351;656;351;48;1",
    ]


def test_table_n_max_defaults_to_four(capsys):
    code, default, _ = run(capsys, "table", "--el", "--format", "csv")
    assert code == 0
    _, explicit, _ = run(capsys, "table", "--el", "--n-max", "4", "--format", "csv")
    assert default == explicit
    assert [row.split(",")[0] for row in default.splitlines()[1:]] == ["0", "1", "2", "3", "4"]


def test_table_order_at_the_clearing_degree(capsys):
    # the odd cycle n = 3 clears (1-x)^7 (1+x), of degree 8; order 7 is refused
    code, out, err = run(capsys, "table", "--ec", "-n", "3", "--order", "8", "--format", "csv")
    assert code == 0, err
    _, default, _ = run(capsys, "table", "--ec", "-n", "3", "--format", "csv")
    assert out == default


def test_table_cycle_single_rows(capsys):
    code, out, _ = run(capsys, "table", "--ec", "-n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "3,1;8;15;8;1"
    code, out, _ = run(capsys, "table", "--ec", "-n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "2,1;1"


def test_fit_match_cases(capsys):
    code, out, _ = run(capsys, "fit", "--cycle", "-n", "3", "-k", "1,1,1")
    assert code == 0
    assert "1/16" in out and "MATCH" in out

    code, out, _ = run(capsys, "fit", "--cycle", "-n", "2", "-k", "1,1")
    assert code == 0
    assert "MATCH" in out

    code, out, _ = run(capsys, "fit", "--cycle", "-n", "1", "-k", "2")
    assert code == 0
    assert "1/8" in out and "MATCH" in out


def test_fit_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(genfun, "psi_formula", lambda n, loops: Fraction(1, 3))
    code, out, _ = run(capsys, "fit", "--cycle", "-n", "3", "-k", "1,1,1")
    assert code == 1
    assert "MISMATCH" in out and "1/3" in out


def test_fit_requires_loops(capsys):
    code, _, err = run(capsys, "fit", "--cycle", "-n", "2", "-k", "1,0")
    assert code == 2
    assert "loop" in err


def test_series_by_vertex_count(capsys):
    code, out, _ = run(capsys, "series", "--line", "-s", "4", "--order", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,5", "1,35"]
    code, out, _ = run(capsys, "series", "--cycle", "-s", "4", "--order", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,5", "1,9"]


@pytest.fixture
def cold_families():
    for family in (recurrences.gf_numerator, recurrences.gf_denominator):
        family.cache_clear()
    yield
    for family in (recurrences.gf_numerator, recurrences.gf_denominator):
        family.cache_clear()


@pytest.mark.parametrize(
    "shape, expected",
    [("--line", ["341", "6666891", "233934538299"]), ("--cycle", ["341", "29241", "1140038361"])],
)
def test_series_by_vertex_count_at_a_large_magic_sum(capsys, cold_families, shape, expected):
    code, out, err = run(capsys, "series", shape, "-s", "340", "--order", "2", "--format", "csv")
    assert code == 0, err
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == expected
    if shape == "--line":
        assert expected == [str(labelings.count_line(n, 2, 340)) for n in range(3)]
    else:
        assert expected == [str(labelings.count_cycle(n, (2,) * n, 340)) for n in range(3)]


def test_series_by_magic_sum(capsys):
    code, out, _ = run(capsys, "series", "--cycle", "-n", "1", "-k", "2", "--order", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,2", "2,4", "3,6"]


def test_series_line_by_magic_sum_is_usage_error(capsys):
    code, _, _ = run(capsys, "series", "--line", "-n", "3", "--order", "3")
    assert code == 2


def test_polytope_vertices_text(capsys):
    code, out, _ = run(capsys, "polytope", "-n", "3")
    assert code == 0
    assert "1/2 1/2 1/2" in out
    assert out.count("\n") == 6  # header plus five vertices


def test_polytope_stable_sets(capsys):
    code, out, _ = run(capsys, "polytope", "-n", "3", "--stable", "--format", "json")
    assert code == 0
    assert json.loads(out)["stable_sets"] == [[], [0], [1], [2]]


def test_polytope_simplex_series(capsys):
    code, out, _ = run(capsys, "polytope", "-n", "3", "--series", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,3", "2,7"]


def test_polytope_even_series_is_usage_error(capsys):
    code, _, _ = run(capsys, "polytope", "-n", "4", "--series", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--cycle", "-n", "1", "-k", "2", "--s-max", "3", "--format", "json"),
        ("verify", "--id", "inv-eq-mirror1", "--format", "json"),
        ("table", "--ec", "-n", "3", "--format", "json"),
        ("fit", "--cycle", "-n", "3", "-k", "1,1,1", "--format", "json"),
        ("polytope", "-n", "5", "--format", "json"),
    ],
)
def test_json_output_round_trips(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    rendered = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert rendered == out


# -- the JSON writer ---------------------------------------------------------------

#: Quotes, backslashes, control characters, DEL, non-ASCII and astral code points.
_awkward_text = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\xe9\u2028\U0001f600'))
_text = st.one_of(st.text(), _awkward_text)
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-(10**60), max_value=10**60), _text
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(_text),
        st.lists(st.integers()),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.dictionaries(_text, inner),
    ),
    max_leaves=40,
)


@given(_json_values)
@example({})
@example([])
@example({"": [[], {}, ()], "a\"b": ["\x00", "\u00e9"], "k": [True, 1, False, 0, -(2**80)]})
def test_json_writer_matches_json_dumps(value):
    assert cli._json_dump(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "payload",
    [1.5, {"a": [0.0]}, [1, 2.0], {1: "a"}, {"a": 1, 2: "b"}, {None: 1}, [object()], {"k": {1, 2}}],
)
def test_json_writer_refuses_floats_non_str_keys_and_other_objects(payload):
    with pytest.raises(TypeError):
        cli._json_dump(payload)


@pytest.fixture
def default_digit_limit():
    """CPython's default int-to-str digit limit, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_answers_past_the_digit_limit_print_in_full(capsys, default_digit_limit):
    code, out, err = run(capsys, "series", "--line", "-s", "2", "--order", "7000", "--format", "csv")
    assert code == 0, err
    last = genfun.line_series_in_y(2, 7000)[-1]
    assert len(str(last)) > 4300
    assert out.splitlines()[-1] == f"7000,{last}"
