"""Spans around magiccount's public functions, installed from outside.

``install`` replaces every public module-level function of the layer
modules, in every module namespace that holds it, with a wrapper that
records a span: (id, parent id, name, start, end, raised, work).  The
library itself is not edited.  ``summarise_job`` turns one job's spans
into per-layer self time (a span's duration minus its direct
children's) and per-function counters.

What wrapping from outside cannot see:

* methods are not wrapped, so ``Poly`` and ``Matrix`` arithmetic lands
  in the self time of the function that called it;
* private helpers (leading underscore) and the per-element leaves in
  ``LEAVES`` are not wrapped either, for the same reason and because a
  span per call would cost more than the call;
* private caches (``recurrences._char_mirror`` and friends) cannot be
  observed; only ``gf_numerator`` / ``gf_denominator`` expose
  ``cache_info()``;
* a call a function makes to itself through a closure (the recurrence
  families) is one span.

Times come from ``time.perf_counter``, which on Linux reads
CLOCK_MONOTONIC and so is comparable between the benchmark and its
child processes.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

LAYERS = ("cli", "labelings", "genfun", "recurrences", "matrices", "poly", "polytope")

#: Called once per element of a result; their time stays with the caller.
LEAVES = frozenset({
    "labelings.loop_ways",
    "poly.coeff_to_str",
    "poly.poly_to_json",
    "polytope.vertex_for_stable_set",
})

#: Span names that belong to the set-up layer rather than to their module.
SETUP_SPANS = frozenset({"cli.build_parser"})


def _bits(_args: tuple, result: object) -> int:
    return result.bit_length() if isinstance(result, int) else 0


#: Work counted per call, from the arguments and the result.
WORK = {
    "labelings.count_cycle": _bits,
    "labelings.count_line": _bits,
    "labelings.brute_force_count": _bits,
    "matrices.det": lambda args, _result: args[0].order,
    "polytope.stable_sets": lambda _args, result: len(result),
}


class Recorder:
    """Spans of one process, kept in memory until the job ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, work_of = self.spans, self.stack, WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the id; filled in on return
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = 0
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                work = work_of(args, result) if work_of and not raised else 0
                spans[sid] = (sid, parent, name, start, end, raised, work)

        return wrapper


def _public_functions(module: types.ModuleType) -> dict[str, object]:
    """Functions a module defines itself and exports (no leading underscore)."""
    found = {}
    for attr, value in vars(module).items():
        if attr.startswith("_"):
            continue
        callable_kind = isinstance(value, (types.FunctionType, functools._lru_cache_wrapper))
        if callable_kind and value.__module__ == module.__name__:
            found[attr] = value
    return found


def install(recorder: Recorder) -> dict[str, object]:
    """Wrap the public functions of every layer module; returns the originals by name."""
    modules = {layer: sys.modules[f"magiccount.{layer}"] for layer in LAYERS}
    originals: dict[str, object] = {}
    replacement: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module).items():
            name = f"{layer}.{attr}"
            originals[name] = fn
            if name not in LEAVES:
                replacement[id(fn)] = recorder.wrap(fn, name)
    # rebind every reference, including names imported into other modules
    for module in list(modules.values()) + [sys.modules["magiccount"]]:
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in replacement:
                namespace[attr] = replacement[id(value)]
    return originals


def layer_of(name: str) -> str:
    return "setup" if name in SETUP_SPANS else name.split(".", 1)[0]


def summarise_job(spans: list[tuple]) -> dict:
    """Per-layer self time and errors, per-function inclusive time, calls and work."""
    child_time = [0.0] * len(spans)
    for sid, parent, _name, start, end, _raised, _work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, dict] = {}
    functions: dict[str, dict] = {}
    for sid, _parent, name, start, end, raised, work in spans:
        lay = layers.setdefault(layer_of(name), {"self_s": 0.0, "errors": 0})
        lay["self_s"] += (end - start) - child_time[sid]
        lay["errors"] += raised
        fn = functions.setdefault(name, {"s": 0.0, "calls": 0, "work_sum": 0, "work_max": 0})
        fn["s"] += end - start
        fn["calls"] += 1
        fn["work_sum"] += work
        fn["work_max"] = max(fn["work_max"], work)
    return {"layers": layers, "functions": functions}
