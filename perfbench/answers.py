"""Independent answers for every benchmark job, and the output checks.

``check(job, stdout)`` parses a job's stdout in its format and compares
it, at tolerance zero, with an answer computed by another route:

* counts with two loops per vertex: the closed-form y-series
  (``line_series_in_y`` / ``cycle_series_in_y``);
* small instances: the enumeration oracle ``brute_force_count``;
* every other count: a transfer-matrix trace built here, where the
  matrix T_k[a][b] = comb(s-a-b+k-1, k-1) is applied to a vector as k
  prefix sums and a reversal;
* ``verify``: every identity holds and was checked at least once;
* ``fit``: verdict MATCH, and phi(s) + (-1)^s psi reproduces the counts;
* stable sets and vertices: Kaplansky's count per size, plus each set
  being stable and each vertex meeting the ring equations.

It returns None when the output is right and a one-line reason when not.
Answers are memoised, so a check costs one computation per distinct job.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb

from magiccount.genfun import cycle_series_in_y, line_series_in_y
from magiccount.labelings import GraphSpec, brute_force_count
from magiccount.polytope import kaplansky_count

BRUTE_VAR_CAP = 10
BRUTE_S_CAP = 8


# -- transfer-matrix route ------------------------------------------------------


def apply_transfer(vec: list[int], k: int) -> list[int]:
    """T_k @ vec for T_k[a][b] = comb(s-a-b+k-1, k-1), s = len(vec) - 1.

    comb(j-b+k-1, k-1) summed against vec[b] for b <= j is the k-fold
    prefix sum of vec at j, and j = s - a turns that into a reversal.
    k = 0 is the loop-free vertex: the slack must be exactly zero.
    """
    acc = vec
    for _ in range(k):
        acc = list(accumulate(acc))
    return acc[::-1]


def transfer_matrix(k: int, s: int) -> list[list[int]]:
    """T_k written out with math.comb, for tests of ``apply_transfer``."""
    def entry(a: int, b: int) -> int:
        slack = s - a - b
        if slack < 0:
            return 0
        if k == 0:
            return int(slack == 0)
        return comb(slack + k - 1, k - 1)

    return [[entry(a, b) for b in range(s + 1)] for a in range(s + 1)]


def cycle_trace(loops: tuple[int, ...], s: int) -> int:
    """trace(T_{k_0} ... T_{k_{n-1}}): labelings of the pseudo-cycle at magic sum s.

    The empty product is the zero-vertex convention s + 1; for one vertex
    the diagonal T[b][b] = comb(s-2b+k-1, k-1) doubles the ring label.
    """
    total = 0
    for b0 in range(s + 1):
        vec = [0] * (s + 1)
        vec[b0] = 1
        for k in loops:
            vec = apply_transfer(vec, k)
        total += vec[b0]
    return total


def line_moments(m: int, s: int, n_max: int) -> list[int]:
    """u^T T_m^n u for n = 0..n_max: labelings of the n-vertex pseudo-line."""
    vec = [1] * (s + 1)
    out = [sum(vec)]
    for _ in range(n_max):
        vec = apply_transfer(vec, m)
        out.append(sum(vec))
    return out


def cycle_traces(s: int, n_max: int) -> list[int]:
    """trace(T_2^n) for n = 0..n_max (n = 0 is s + 1)."""
    out = [s + 1] + [0] * n_max
    for b0 in range(s + 1):
        vec = [0] * (s + 1)
        vec[b0] = 1
        for n in range(1, n_max + 1):
            vec = apply_transfer(vec, 2)
            out[n] += vec[b0]
    return out


# -- counts by the route that suits the instance --------------------------------


def _edges(shape: str, n: int, loops: tuple[int, ...]) -> int:
    plain = n + 1 if shape == "line" else n
    return plain + sum(loops)


@lru_cache(maxsize=None)
def counts(shape: str, n: int, loops: tuple[int, ...], s_max: int) -> tuple[int, ...]:
    """h(s) for s = 0..s_max by an independent route."""
    if _edges(shape, n, loops) <= BRUTE_VAR_CAP and s_max <= BRUTE_S_CAP and n > 0:
        spec = GraphSpec(shape, n, loops)
        return tuple(brute_force_count(spec, s, BRUTE_VAR_CAP, BRUTE_S_CAP) for s in range(s_max + 1))
    if loops and set(loops) == {2}:
        series = line_series_in_y if shape == "line" else cycle_series_in_y
        return tuple(int(series(s, n)[n]) for s in range(s_max + 1))
    return count_by_trace(shape, n, loops, s_max)


def count_by_trace(shape: str, n: int, loops: tuple[int, ...], s_max: int) -> tuple[int, ...]:
    """h(s) for s = 0..s_max by the transfer-matrix route only (checks --brute output)."""
    if shape == "line":
        return tuple(line_moments(loops[0] if loops else 0, s, n)[n] for s in range(s_max + 1))
    return tuple(cycle_trace(loops, s) for s in range(s_max + 1))


def clearing_factor(shape: str, n: int) -> list[int]:
    """Coefficients of (1-x)^p (1+x)^q that clear the poles of the magic-sum series."""
    if shape == "line":
        power, plus = 2 * n + 2, 0
    elif n == 0:
        power, plus = 2, 0
    else:
        power, plus = 2 * n + 1, n % 2
    coeffs = [(-1) ** i * comb(power, i) for i in range(power + 1)]
    if plus:
        coeffs = [a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def numerator(shape: str, n: int) -> list[int]:
    """Numerator coefficients of the two-loop magic-sum series, trailing zeros dropped."""
    factor = clearing_factor(shape, n)
    deg = len(factor) - 1
    h = counts(shape, n, (2,) * n, deg + 8)
    product = [sum(factor[j] * h[k - j] for j in range(min(k, deg) + 1)) for k in range(len(h))]
    if any(product[deg:]):
        raise ArithmeticError(f"{shape} n={n}: cleared series does not vanish")
    num = product[:deg]
    while num and num[-1] == 0:
        num.pop()
    return num


def simplex_series(n: int, order: int) -> list[int]:
    """Coefficients of 1 / ((1-t)^n (1-t^2)): sum over j of comb(s-2j+n-1, n-1)."""
    return [sum(comb(s - 2 * j + n - 1, n - 1) for j in range(s // 2 + 1)) for s in range(order + 1)]


def stable_set_total(n: int) -> int:
    return sum(kaplansky_count(n, k) for k in range(n // 2 + 1))


# -- output parsing ---------------------------------------------------------------


def _rows(stdout: str, fmt: str, columns: int) -> list[list[str]]:
    """Data rows of a text or csv table, header dropped, cells stripped.

    In csv only a vertex table (three columns) may hold commas in its first
    cell, as in "{0, 2}", so it is split from the right; other tables have
    them in the last cell at most.  Text cells are separated by two or
    more spaces; an empty last cell (as in verify's "first failure") is
    restored.
    """
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("empty output")
    rows = []
    for line in lines[1:]:
        if fmt == "csv":
            cells = line.rsplit(",", 2) if columns == 3 else line.split(",", columns - 1)
        else:
            cells = re.split(r" {2,}", line.rstrip())
            cells += [""] * (columns - len(cells))
        if len(cells) != columns:
            raise ValueError(f"row has {len(cells)} cells, expected {columns}: {line[:80]!r}")
        rows.append([c.strip() for c in cells])
    return rows


_NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _number(text: str) -> Fraction:
    """An exact number as the CLI prints it: a decimal integer or "p/q"."""
    if not _NUMBER.fullmatch(text):
        raise ValueError(f"not an exact number: {text[:40]!r}")
    return Fraction(text)


def _sequence(stdout: str, fmt: str, json_key: str) -> list[Fraction]:
    if fmt == "json":
        doc = json.loads(stdout)
        values = doc[json_key]
        if isinstance(values, dict):
            if sorted(map(int, values)) != list(range(len(values))):
                raise ValueError("keys are not 0, 1, 2, ...")
            return [_number(values[str(k)]) for k in range(len(values))]
        return [_number(v) for v in values]
    pairs = _rows(stdout, fmt, 2)
    if [int(i) for i, _ in pairs] != list(range(len(pairs))):
        raise ValueError("index column is not 0, 1, 2, ...")
    return [_number(v) for _, v in pairs]


def _compare(name: str, got: list, want: list) -> str | None:
    if len(got) != len(want):
        return f"{name}: {len(got)} values, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{name}: value {i} is {g}, expected {w}"
    return None


# -- per-kind checks ---------------------------------------------------------------


def _echo(e: dict, out: str, **fields: object) -> str | None:
    """In json output, the instance fields the job asked for are echoed back unchanged."""
    if e["fmt"] != "json":
        return None
    doc = json.loads(out)
    wrong = [key for key, value in fields.items() if doc.get(key) != value]
    return f"{e['kind']}: json echoes {', '.join(wrong)} wrongly" if wrong else None


def _check_count(e: dict, out: str) -> str | None:
    loops = tuple(e["loops"])
    if "--brute" in e["argv"]:
        want = count_by_trace(e["shape"], e["n"], loops, e["s_max"])
    else:
        want = counts(e["shape"], e["n"], loops, e["s_max"])
    return (_echo(e, out, kind=e["shape"], n=e["n"], loops=list(loops))
            or _compare("count", _sequence(out, e["fmt"], "counts"), list(want)))


def _check_series_s(e: dict, out: str) -> str | None:
    want = counts("cycle", e["n"], tuple(e["loops"]), e["order"])
    return (_echo(e, out, n=e["n"], loops=e["loops"])
            or _compare("series", _sequence(out, e["fmt"], "coefficients"), list(want)))


def _check_series_y(e: dict, out: str) -> str | None:
    if e["shape"] == "line":
        want = line_moments(2, e["s"], e["order"])
    else:
        want = cycle_traces(e["s"], e["order"])
    return (_echo(e, out, magic_sum=e["s"])
            or _compare("series", _sequence(out, e["fmt"], "coefficients"), want))


def _check_table(e: dict, out: str) -> str | None:
    want = {n: numerator(e["shape"], n) for n in e["ns"]}
    if e["fmt"] == "json":
        got = {}
        for r in json.loads(out):
            factor = clearing_factor(e["shape"], r["n"])
            power = len(factor) - 1 - (e["shape"] == "cycle" and r["n"] % 2)
            coeffs = [int(c) for c in r["coefficients"]]
            if (r["kind"], r["one_minus_x_power"], r["one_plus_x"], r["palindromic"]) != (
                    e["shape"], power, e["shape"] == "cycle" and r["n"] % 2 == 1, coeffs == coeffs[::-1]):
                return f"table: json row n={r['n']} describes its factor wrongly"
            got[r["n"]] = coeffs
    elif e["fmt"] == "csv":
        got = {}
        for line in out.splitlines()[1:]:
            n, coeffs = line.split(",", 1)
            got[int(n)] = [int(c) for c in coeffs.split(";") if c]
    else:
        got = {int(n): [int(c) for c in coeffs.split(", ") if c] for n, coeffs in _rows(out, "text", 2)}
    if sorted(got) != sorted(want):
        return f"table: rows for n={sorted(got)}, expected {sorted(want)}"
    for n in want:
        bad = _compare(f"table n={n}", got[n], want[n])
        if bad:
            return bad
    return None


def _check_fit(e: dict, out: str) -> str | None:
    if e["fmt"] == "json":
        doc = json.loads(out)
        degree, phi = doc["degree"], [_number(c) for c in doc["phi"]]
        psi, predicted, verdict = _number(doc["psi"]), _number(doc["predicted_psi"]), doc["match"] is True
    else:
        fields = dict(_rows(out, e["fmt"], 2))
        sep = ";" if e["fmt"] == "csv" else ", "
        degree, phi = int(fields["degree"]), [_number(c) for c in fields["phi"].split(sep)]
        psi, predicted = _number(fields["psi"]), _number(fields["predicted psi"])
        verdict = fields["verdict"] == "MATCH"
    total = sum(e["loops"])
    # zero for even rings, 2 / 2^(total loops + 2) for odd ones
    closed_form = Fraction(1 + (-1) ** (e["n"] + 1), 2 ** (total + 2))
    if not verdict or psi != predicted or predicted != closed_form:
        return f"fit: verdict {verdict}, psi {psi}, predicted {predicted}, closed form {closed_form}"
    if degree != total:
        return f"fit: degree {degree}, expected {total}"
    top = total + 1 + e["holdout"]
    want = counts("cycle", e["n"], tuple(e["loops"]), top)
    got = [sum(c * s**j for j, c in enumerate(phi)) + (psi if s % 2 == 0 else -psi) for s in range(top + 1)]
    return _compare("fit", got, list(want))


def _check_verify(e: dict, out: str) -> str | None:
    """Every requested identity is reported in order, holds, and was checked
    at every index of its range, which ends at n-max and is not empty."""
    if e["fmt"] == "json":
        doc = json.loads(out)
        if doc["all_hold"] is not True:
            return "verify: all_hold is not true"
        reports = [(r["identity"], r["start"], r["stop"], r["checked"], r["holds"] is True and
                    r["first_failure"] is None) for r in doc["reports"]]
    else:
        reports = []
        for ident, span, checked, status, failure in _rows(out, e["fmt"], 5):
            lo, hi = span.split("..")
            reports.append((ident, int(lo), int(hi), int(checked), status == "pass" and failure == ""))
    if [r[0] for r in reports] != e["ids"]:
        return "verify: identities reported differ from those requested"
    for ident, lo, hi, checked, holds in reports:
        if hi != e["n_max"] or checked < 1 or checked != hi - lo + 1 or not holds:
            return f"verify: {ident} range {lo}..{hi} checked={checked} holds={holds}"
    return None


def _is_stable(n: int, members: list[int]) -> bool:
    chosen = set(members)
    return len(chosen) == len(members) and all(0 <= v < n and (v + 1) % n not in chosen for v in chosen)


def _parse_set(text: str) -> list[int]:
    inner = text.strip()[1:-1]
    return [int(v) for v in inner.split(", ")] if inner else []


def _check_sizes(n: int, sets: list[list[int]]) -> str | None:
    if any(not _is_stable(n, s) for s in sets):
        return "polytope: a listed set is not stable"
    if len({tuple(s) for s in sets}) != len(sets):
        return "polytope: a stable set is listed twice"
    sizes: dict[int, int] = {}
    for s in sets:
        sizes[len(s)] = sizes.get(len(s), 0) + 1
    for k in range(n // 2 + 1):
        if sizes.get(k, 0) != kaplansky_count(n, k):
            return f"polytope: {sizes.get(k, 0)} stable sets of size {k}, Kaplansky says {kaplansky_count(n, k)}"
    return None


def _check_vertex_rows(n: int, rows: list[tuple[list[int] | None, list[Fraction], list[Fraction]]],
                       hyperplane: bool) -> str | None:
    integral = [r for r in rows if r[0] is not None]
    fractional = [r for r in rows if r[0] is None]
    for support, alpha, beta in rows:
        if len(alpha) != n or len(beta) != n or any(c < 0 for c in alpha + beta):
            return "polytope: vertex coordinates malformed"
        if any(beta[i] + alpha[i] + beta[(i + 1) % n] != 1 for i in range(n)):
            return "polytope: vertex violates a ring equation"
        if support is not None and beta != [int(i in support) for i in range(n)]:
            return "polytope: ring coordinates do not match the stable set"
    if hyperplane:
        if fractional or len(integral) != kaplansky_count(n, (n - 1) // 2):
            return "polytope: wrong number of slice vertices"
        supports = [r[0] for r in integral]
        if any(len(s) != (n - 1) // 2 or not _is_stable(n, s) for s in supports):
            return "polytope: slice vertex is not a maximum stable set"
        if len({tuple(s) for s in supports}) != len(supports):
            return "polytope: a slice vertex is listed twice"
        return None
    if len(fractional) != n % 2:
        return "polytope: wrong number of fractional vertices"
    if fractional and fractional[0][2] != [Fraction(1, 2)] * n:
        return "polytope: fractional vertex is not all halves"
    return _check_sizes(n, [r[0] for r in integral])


def _check_polytope(e: dict, out: str) -> str | None:
    n, fmt, mode = e["n"], e["fmt"], e["mode"]
    bad = _echo(e, out, n=n)
    if bad:
        return bad
    if mode == "series":
        return _compare("simplex series", _sequence(out, fmt, "coefficients"), simplex_series(n, e["order"]))
    if mode == "stable":
        if fmt == "json":
            sets = json.loads(out)["stable_sets"]
        else:
            pairs = _rows(out, fmt, 2)
            if [int(i) for i, _ in pairs] != list(range(len(pairs))):
                return "polytope: index column is not 0, 1, 2, ..."
            sets = [_parse_set(s) for _, s in pairs]
        if len(sets) != stable_set_total(n):
            return f"polytope: {len(sets)} stable sets, expected {stable_set_total(n)}"
        return _check_sizes(n, sets)
    if fmt == "json":
        rows = [(v["stable_set"], [_number(c) for c in v["alpha"]], [_number(c) for c in v["beta"]])
                for v in json.loads(out)["vertices"]]
    else:
        rows = []
        for label, alpha, beta in _rows(out, fmt, 3):
            support = None if label == "fractional" else _parse_set(label)
            rows.append((support, [_number(c) for c in alpha.split()], [_number(c) for c in beta.split()]))
    return _check_vertex_rows(n, rows, hyperplane=mode == "hyperplane")


_CHECKS = {
    "count": _check_count,
    "series_s": _check_series_s,
    "series_y": _check_series_y,
    "table": _check_table,
    "fit": _check_fit,
    "verify": _check_verify,
    "polytope": _check_polytope,
}


def check(argv: tuple[str, ...], expect: dict, stdout: str) -> str | None:
    """None when ``stdout`` is the right answer for the job, else the reason.

    ``expect`` is the job's record from ``workloads``; ``argv`` is its
    command line.
    """
    try:
        return _CHECKS[expect["kind"]](dict(expect, argv=argv), stdout)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError, json.JSONDecodeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
