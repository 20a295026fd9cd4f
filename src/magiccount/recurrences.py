"""Polynomial families for the line/cycle generating functions, plus a
machine-checkable catalog of the identities that connect them.

Two families are generated from four initial values and one recurrence,

    F_n(y) = -y [F_{n-1}(-y) + F_{n-3}(-y)] + 2 F_{n-2}(y) - F_{n-4}(y),

seeded so that ``gf_numerator(s) / gf_denominator(s)`` is the generating
function, in the size variable, of pseudo-line counts with two loops per
vertex at magic sum s.  The same polynomials arise on the matrix side:
the denominator family equals det(I - yB) for the order-(s+1) transfer
matrix B, and the numerator family equals the all-ones adjugate form
u^T adj(I - yB) u.  Both come from one walk of the counting DP, with no
elimination: the traces of the powers of B are ring counts, from which
Newton's identities build det(I - yB), and by the matrix determinant
lemma the form is det(I - yB) times the resolvent series
Sum_k (u^T B^k u) y^k, whose moments are line counts.  So identity
``series-bridge`` below certifies the recurrence families against the
DP, and ``inv-eq-signed-det`` the power sums of the sparse inverse
against the same walk.

Every identity is certified by exact polynomial equality over a finite
index range; a nonzero difference polynomial is reported, never rounded
away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .labelings import transfer_walk
from .matrices import char_poly, det_from_power_sums, mirror_tridiagonal, transfer_inverse
from .poly import Poly, series_poly_product

Y = Poly((0, 1))


class UnknownIdentity(KeyError):
    """Identity id not present in the catalog."""


_NUMERATOR_SEED = (Poly((1,)), Poly((2,)), Poly((3, -2)), Poly((4, -4, -2)))
_DENOMINATOR_SEED = (
    Poly((1, -1)),
    Poly((1, -2, -1)),
    Poly((1, -4, -2, 1)),
    Poly((1, -6, -7, 2, 1)),
)


def _parity_sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _signature_step(f: Callable[[int], Poly], n: int) -> Poly:
    """-y [f(n-1)(-y) + f(n-3)(-y)] + 2 f(n-2) - f(n-4)."""
    return -Y * (f(n - 1).negate_variable() + f(n - 3).negate_variable()) + 2 * f(n - 2) - f(n - 4)


def _mirror_step(f: Callable[[int], Poly], n: int) -> Poly:
    """(-1)^(n-1) y [f(n-1)(-y) - f(n-3)(-y)] - 2 f(n-2) - f(n-4)."""
    return (
        _parity_sign(n - 1) * Y * (f(n - 1).negate_variable() - f(n - 3).negate_variable())
        - 2 * f(n - 2)
        - f(n - 4)
    )


def _family(seed: tuple[Poly, ...]) -> Callable[[int], Poly]:
    @lru_cache(maxsize=None)
    def member(n: int) -> Poly:
        if n < 0:
            raise ValueError("index must be nonnegative")
        # The cache holds the members below its size: a miss first fills
        # in every lower member, in increasing order, so each of those
        # calls and the step below find their operands cached and no call
        # nests more than one level deep.
        for lower in range(member.cache_info().currsize, n):
            member(lower)
        return seed[n] if n < 4 else _signature_step(member, n)

    return member


#: Numerator family of the line-graph generating function (size variable).
gf_numerator = _family(_NUMERATOR_SEED)

#: Denominator family of the line-graph generating function.
gf_denominator = _family(_DENOMINATOR_SEED)


# -- cached matrix-side polynomials ------------------------------------------


@lru_cache(maxsize=None)
def _char_mirror(n: int, corner: int) -> Poly:
    return char_poly(mirror_tridiagonal(n, corner))


@lru_cache(maxsize=None)
def _char_inverse(n: int) -> Poly:
    return char_poly(transfer_inverse(n))


@lru_cache(maxsize=None)
def _transfer_pair(n: int) -> tuple[Poly, Poly]:
    """det(I - yB) and u^T adj(I - yB) u for the order-n transfer matrix B.

    One DP walk gives the traces of B^r, from which Newton's identities
    build det(I - yB), and the moments u^T B^k u, which are the line
    counts.  The form is det(I - yB) Sum_k (u^T B^k u) y^k, cut off below
    degree n.
    """
    traces, moments = transfer_walk(n - 1, n)
    rdet = det_from_power_sums(traces[1:])
    return rdet, Poly(series_poly_product(moments[:n], rdet))


# -- the identity catalog -----------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """One certified identity: produces (lhs, rhs) pairs at index n."""

    identity_id: str
    min_index: int
    description: str
    sides: Callable[[int], list[tuple[Poly, Poly]]]


def _catalog() -> dict[str, Identity]:
    m1 = lambda n: _char_mirror(n, 1)
    m2 = lambda n: _char_mirror(n, 2)
    inv = _char_inverse
    rdet = lambda n: _transfer_pair(n)[0]
    form = lambda n: _transfer_pair(n)[1]

    entries = [
        Identity(
            "mirror1-diff-eq-mirror2-sum",
            3,
            "char(mirror1_n) - char(mirror1_{n-2}) = char(mirror2_n) + char(mirror2_{n-2})",
            lambda n: [(m1(n) - m1(n - 2), m2(n) + m2(n - 2))],
        ),
        Identity(
            "inv-step-via-mirror2",
            3,
            "char(inv_n) = (-1)^{n-1} y char(mirror2_{n-1})(-y) - char(inv_{n-2})",
            lambda n: [
                (
                    inv(n),
                    _parity_sign(n - 1) * Y * m2(n - 1).negate_variable() - inv(n - 2),
                )
            ],
        ),
        Identity(
            "inv-eq-mirror1",
            1,
            "char(inv_n) = char(mirror1_n)",
            lambda n: [(inv(n), m1(n))],
        ),
        Identity(
            "inv-from-mirror2",
            5,
            "2 char(inv_n) = char(mirror2_n) + (-1)^{n-1} y char(mirror2_{n-1})(-y)"
            " + char(mirror2_{n-2})",
            lambda n: [
                (
                    2 * inv(n),
                    m2(n)
                    + _parity_sign(n - 1) * Y * m2(n - 1).negate_variable()
                    + m2(n - 2),
                )
            ],
        ),
        Identity(
            "mirror2-only-rec",
            5,
            "char(mirror2_n) = (-1)^{n-1} y [char(mirror2_{n-1})(-y) -"
            " char(mirror2_{n-3})(-y)] - 2 char(mirror2_{n-2}) - char(mirror2_{n-4})",
            lambda n: [(m2(n), _mirror_step(m2, n))],
        ),
        Identity(
            "inv-only-rec",
            5,
            "same four-term recurrence for char(inv_n)",
            lambda n: [(inv(n), _mirror_step(inv, n))],
        ),
        Identity(
            "inv-eq-signed-det",
            1,
            "char(inv_n) = (-1)^{n(n+1)/2} det(I - yB_n)",
            lambda n: [(inv(n), _parity_sign(n * (n + 1) // 2) * rdet(n))],
        ),
        Identity(
            "det-only-rec",
            5,
            "det(I - yB_n) satisfies the signature four-term recurrence",
            lambda n: [(rdet(n), _signature_step(rdet, n))],
        ),
        Identity(
            "form-rec-via-det",
            5,
            "form_n = 2 form_{n-2} - form_{n-4} + 2 [det_{n-2} - det_{n-4}]",
            lambda n: [
                (
                    form(n),
                    2 * form(n - 2) - form(n - 4) + 2 * (rdet(n - 2) - rdet(n - 4)),
                )
            ],
        ),
        Identity(
            "form-sum-eq-mirror2",
            5,
            "form_n + form_{n-2} = (-1)^{n(n+1)/2 + 1} 2 char(mirror2_{n-2})",
            lambda n: [
                (
                    form(n) + form(n - 2),
                    _parity_sign(n * (n + 1) // 2 + 1) * 2 * m2(n - 2),
                )
            ],
        ),
        Identity(
            "det-diff-eq-form-sum",
            5,
            "2 [det_{n-2} - det_{n-4}] = -y [form_{n-1}(-y) + form_{n-3}(-y)]",
            lambda n: [
                (
                    2 * (rdet(n - 2) - rdet(n - 4)),
                    -Y * (form(n - 1).negate_variable() + form(n - 3).negate_variable()),
                )
            ],
        ),
        Identity(
            "form-only-rec",
            5,
            "the all-ones adjugate form satisfies the signature recurrence",
            lambda n: [(form(n), _signature_step(form, n))],
        ),
        Identity(
            "series-bridge",
            0,
            "gf_denominator(s) = det(I - yB_{s+1}) and gf_numerator(s) ="
            " allones form of B_{s+1}",
            lambda s: [
                (gf_denominator(s), rdet(s + 1)),
                (gf_numerator(s), form(s + 1)),
            ],
        ),
    ]
    return {e.identity_id: e for e in entries}


CATALOG: dict[str, Identity] = _catalog()


@dataclass(frozen=True)
class IdentityCheck:
    index: int
    holds: bool
    diff: Optional[Poly]  # lhs - rhs when the check fails


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    start: int
    stop: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_hold(self) -> bool:
        """True when at least one index was checked and every check held."""
        return bool(self.checks) and all(c.holds for c in self.checks)

    @property
    def first_failure(self) -> Optional[IdentityCheck]:
        return next((c for c in self.checks if not c.holds), None)

    def to_json_obj(self) -> dict[str, object]:
        return {
            "identity": self.identity_id,
            "start": self.start,
            "stop": self.stop,
            "checked": len(self.checks),
            "holds": self.all_hold,
            "first_failure": (
                None
                if self.first_failure is None
                else {
                    "index": self.first_failure.index,
                    "difference": self.first_failure.diff.to_text(),
                }
            ),
        }


def verify_identity(identity_id: str, stop: int = 12, start: Optional[int] = None) -> IdentityReport:
    """Check one catalog identity for every index in [start, stop].

    Indices below the identity's stated minimum are skipped, not failed;
    a range that leaves no index to check does not hold.
    """
    if identity_id not in CATALOG:
        raise UnknownIdentity(identity_id)
    entry = CATALOG[identity_id]
    lo = entry.min_index if start is None else max(start, entry.min_index)
    checks = []
    for n in range(lo, stop + 1):
        diff = Poly()
        for lhs, rhs in entry.sides(n):
            delta = lhs - rhs
            if not delta.is_zero():
                diff = delta
                break
        checks.append(IdentityCheck(n, diff.is_zero(), None if diff.is_zero() else diff))
    return IdentityReport(identity_id, lo, stop, tuple(checks))


def verify_all(stop: int = 12) -> list[IdentityReport]:
    """Run the whole catalog; order is the fixed catalog order."""
    return [verify_identity(identity_id, stop) for identity_id in CATALOG]
