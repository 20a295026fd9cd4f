"""Exact counting of magic labelings of pseudo-line and pseudo-cycle graphs.

A magic labeling gives every edge a nonnegative integer so that the
labels meeting each vertex sum to the same magic sum s.  This package
counts such labelings exactly (arbitrary-precision integers and
rationals throughout), reproduces the closed-form generating functions
in both the vertex-count and magic-sum variables, certifies the full
catalog of determinant and recurrence identities behind those closed
forms, and enumerates the vertex geometry that explains the alternating
term in the counts for odd cycles.
"""

from .genfun import (
    InconsistentSamples,
    NotStabilized,
    NumeratorReport,
    QuasiPoly,
    alternating_limit,
    clear_poles,
    cycle_series,
    cycle_series_in_y,
    ehrhart_numerator,
    fit_cycle,
    line_series_in_y,
    psi_formula,
    psi_limit_check,
    quasipoly_fit,
)
from .labelings import (
    CountTable,
    GraphSpec,
    InstanceTooLarge,
    LengthMismatch,
    brute_force_count,
    count_cycle,
    count_line,
)
from .matrices import (
    DimensionMismatch,
    Matrix,
    adjugate_allones_form,
    char_poly,
    det,
    det_identity_minus_y,
    mirror_tridiagonal,
    transfer_inverse,
    transfer_matrix,
)
from .poly import Poly, ZeroConstantTerm, interpolate, series_quotient
from .polytope import (
    EvenN,
    Vertex,
    affinely_independent,
    hyperplane_vertices,
    kaplansky_count,
    max_stable_count,
    simplex_series,
    simplex_vertices,
    stable_set_sizes,
    stable_sets,
    stable_sets_of_size,
    vertices,
)
from .recurrences import (
    CATALOG,
    IdentityReport,
    UnknownIdentity,
    gf_denominator,
    gf_numerator,
    verify_all,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CountTable",
    "DimensionMismatch",
    "EvenN",
    "GraphSpec",
    "IdentityReport",
    "InconsistentSamples",
    "InstanceTooLarge",
    "LengthMismatch",
    "Matrix",
    "NotStabilized",
    "NumeratorReport",
    "Poly",
    "QuasiPoly",
    "UnknownIdentity",
    "Vertex",
    "ZeroConstantTerm",
    "adjugate_allones_form",
    "affinely_independent",
    "alternating_limit",
    "brute_force_count",
    "char_poly",
    "clear_poles",
    "count_cycle",
    "count_line",
    "cycle_series",
    "cycle_series_in_y",
    "det",
    "det_identity_minus_y",
    "ehrhart_numerator",
    "fit_cycle",
    "gf_denominator",
    "gf_numerator",
    "hyperplane_vertices",
    "interpolate",
    "kaplansky_count",
    "line_series_in_y",
    "max_stable_count",
    "mirror_tridiagonal",
    "psi_formula",
    "psi_limit_check",
    "quasipoly_fit",
    "series_quotient",
    "simplex_series",
    "simplex_vertices",
    "stable_set_sizes",
    "stable_sets",
    "stable_sets_of_size",
    "transfer_inverse",
    "transfer_matrix",
    "verify_all",
    "verify_identity",
    "vertices",
]
