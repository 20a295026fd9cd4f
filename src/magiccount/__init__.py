"""Exact counting of magic labelings of pseudo-line and pseudo-cycle graphs.

A magic labeling gives every edge a nonnegative integer so that the
labels meeting each vertex sum to the same magic sum s.  This package
counts such labelings exactly (arbitrary-precision integers and
rationals throughout), reproduces the closed-form generating functions
in both the vertex-count and magic-sum variables, certifies the full
catalog of determinant and recurrence identities behind those closed
forms, and enumerates the vertex geometry that explains the alternating
term in the counts for odd cycles.

The layer modules are registered lazily: each one runs the first time
one of its attributes is read, so a command executes only the layers it
uses.  The names in ``__all__`` are served from their home modules on
first access.
"""

import importlib.util
import sys

#: The exported names of each layer module.
_EXPORTS = {
    "genfun": (
        "InconsistentSamples",
        "NotStabilized",
        "NumeratorReport",
        "QuasiPoly",
        "alternating_limit",
        "clear_poles",
        "cycle_series",
        "cycle_series_in_y",
        "ehrhart_numerator",
        "fit_cycle",
        "line_series_in_y",
        "psi_formula",
        "psi_limit_check",
        "quasipoly_fit",
    ),
    "labelings": (
        "CountTable",
        "GraphSpec",
        "InstanceTooLarge",
        "LengthMismatch",
        "brute_force_count",
        "count_cycle",
        "count_line",
    ),
    "matrices": (
        "DimensionMismatch",
        "Matrix",
        "adjugate_allones_form",
        "char_poly",
        "det",
        "det_identity_minus_y",
        "mirror_tridiagonal",
        "transfer_inverse",
        "transfer_matrix",
    ),
    "poly": ("Poly", "ZeroConstantTerm", "interpolate", "series_quotient"),
    "polytope": (
        "EvenN",
        "Vertex",
        "affinely_independent",
        "hyperplane_vertices",
        "kaplansky_count",
        "max_stable_count",
        "simplex_series",
        "simplex_vertices",
        "stable_set_sizes",
        "stable_sets",
        "stable_sets_of_size",
        "vertices",
    ),
    "recurrences": (
        "CATALOG",
        "IdentityReport",
        "UnknownIdentity",
        "gf_denominator",
        "gf_numerator",
        "verify_all",
        "verify_identity",
    ),
}

_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}


def _register_lazy(layer: str) -> None:
    """Put ``magiccount.<layer>`` in ``sys.modules``; its body runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[layer] = module


for _layer in _EXPORTS:
    _register_lazy(_layer)
del _layer


def __getattr__(name: str) -> object:
    """Serve an exported name from its home layer (PEP 562) and keep it here."""
    try:
        layer = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[layer], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted(_HOME)
