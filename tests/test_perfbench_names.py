"""Every library function the benchmark names must exist under that name.

perfbench reads its per-function counters through
``functions.get(name, {})``, so a function that was renamed or removed
would make its metric read 0 without any error.  The lists are read
from the benchmark's source, not imported, so this test neither runs
nor depends on the benchmark itself.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(filename: str, name: str) -> ast.expr:
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise LookupError(f"{filename} assigns no {name}")


def _frozenset_literal(filename: str, name: str) -> set[str]:
    call = _assigned(filename, name)  # frozenset({...})
    return set(ast.literal_eval(call.args[0]))


def _targets() -> list[str]:
    names = {fn for _metric, fn, _field in ast.literal_eval(_assigned("report.py", "FUNCTION_METRICS"))}
    names |= {fn for _metric, fns in ast.literal_eval(_assigned("report.py", "MAX_METRICS")) for fn in fns}
    names |= {ast.literal_eval(key) for key in _assigned("tracing.py", "WORK").keys}
    names |= _frozenset_literal("tracing.py", "LEAVES")
    names |= _frozenset_literal("tracing.py", "SETUP_SPANS")
    return sorted(names)


TARGETS = _targets()


def test_the_benchmark_names_functions():
    assert {"labelings.count_cycle", "labelings.count_line", "matrices.det"} <= set(TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_benchmark_target_is_a_public_library_function(target):
    layer, attr = target.split(".")
    module = importlib.import_module(f"magiccount.{layer}")
    assert not attr.startswith("_"), "perfbench wraps public functions only"
    assert callable(getattr(module, attr, None)), f"magiccount.{layer} has no {attr}"


@pytest.mark.parametrize("name", ["gf_numerator", "gf_denominator"])
def test_recurrence_families_keep_the_cache_the_benchmark_reads(name):
    # launch.py reads cache_info() of both families after every traced job,
    # and tracing wraps only plain functions and lru_cache wrappers
    # that the layer itself defines.
    family = getattr(importlib.import_module("magiccount.recurrences"), name)
    assert isinstance(family, functools._lru_cache_wrapper)
    assert family.__module__ == "magiccount.recurrences"
    hits, misses, _maxsize, _currsize = family.cache_info()
    assert hits >= 0 and misses >= 0
