"""Command-line front end.

Subcommands: count, verify, table, fit, series, polytope.  Output is
text (aligned columns), csv, or json; every numeric value is rendered as
a decimal string, rationals as "p/q", so nothing is ever squeezed
through a 64-bit float.

JSON goes through ``_json_dump``, a small writer whose output is byte for
byte ``json.dumps(payload, indent=2, sort_keys=True)``.  It takes dicts
with ``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and None, and
raises ``TypeError`` on anything else, floats included: the CLI never
prints a float.  A list of only strings or only ints is written with one
``join``, so a listing costs one interpreted step per row, not per
coordinate.  ``json.encoder`` is imported on the first JSON write only.

Exact answers print in full: ``main`` lifts CPython's limit on the digits
of an int-to-str conversion once the arguments are parsed.

Exit codes: 0 success, 1 mathematical failure (an identity breaks, a
table fails to stabilize, a fitted constant misses its prediction),
2 usage error, 3 work budget exceeded (the brute-force caps, the ``count``
DP budget, the polytope listing budget), 4 internal error: an exact
computation met a value it cannot produce, such as a division that must
be exact and is not.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import genfun, labelings, poly, polytope, recurrences

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

#: The ids of ``recurrences.CATALOG`` in catalog order, so that building the
#: parser does not run the recurrences layer.
IDENTITY_IDS = (
    "mirror1-diff-eq-mirror2-sum",
    "inv-step-via-mirror2",
    "inv-eq-mirror1",
    "inv-from-mirror2",
    "mirror2-only-rec",
    "inv-only-rec",
    "inv-eq-signed-det",
    "det-only-rec",
    "form-rec-via-det",
    "form-sum-eq-mirror2",
    "det-diff-eq-form-sum",
    "form-only-rec",
    "series-bridge",
)


def _json_dump(payload: object) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, for CLI payloads."""
    from json.encoder import encode_basestring_ascii as quote

    def write(value: object, indent: str) -> str:
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = indent + "  "
            # quote raises TypeError on a key that is not a str
            items = (quote(key) + ": " + write(value[key], inner) for key in sorted(value))
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = indent + "  "
            kinds = set(map(type, value))
            if kinds == {str}:
                items = map(quote, value)
            elif kinds == {int}:
                items = map(int.__repr__, value)
            else:
                items = (write(item, inner) for item in value)
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
        if isinstance(value, str):
            return quote(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    return write(payload, "")


def _emit_table(headers: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join([",".join(headers), *map(",".join, rows)]) + "\n"
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = ["  ".join(map(str.ljust, r, widths)) for r in [headers, *rows]]
    return "\n".join(lines) + "\n"


def _size(text: str) -> int:
    """argparse type for vertex counts, magic sums and orders."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _parse_loops(text: str, n: int) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"argument -k: expected comma-separated integers, got {text!r}") from None
    if len(values) == 1 and n > 1:
        values = values * n
    if len(values) != n:
        raise ValueError(f"argument -k: loop vector length {len(values)} does not match n={n}")
    if any(v < 0 for v in values):
        raise ValueError("argument -k: loop counts must be nonnegative")
    return values


# -- subcommand handlers -------------------------------------------------------


def _cmd_count(args: argparse.Namespace) -> int:
    if args.line:
        if args.loops is not None:
            raise ValueError("argument -k: not allowed with argument --line; give loops per vertex with -m")
        spec = labelings.GraphSpec.line(args.n, 2 if args.m is None else args.m)
    else:
        if args.m is not None:
            raise ValueError("argument -m: not allowed with argument --cycle; give loops per vertex with -k")
        spec = labelings.GraphSpec.cycle(args.n, _parse_loops("2" if args.loops is None else args.loops, args.n))
    s_values = range(args.s_max + 1)
    if args.brute:
        counts = {
            s: labelings.brute_force_count(spec, s, var_cap=args.brute_cap, s_cap=args.brute_s_cap)
            for s in s_values
        }
        table = labelings.CountTable(spec, counts)
    else:
        cells = spec.dp_cells(args.s_max)
        if cells > labelings.MAX_DP_CELLS:
            raise labelings.InstanceTooLarge(
                f"argument --s-max: counting the {spec.kind} with n={spec.n} up to s={args.s_max} exceeds the work "
                f"budget ({cells} DP cells times 64-bit label words, more than {labelings.MAX_DP_CELLS})"
            )
        table = labelings.CountTable.compute(spec, s_values)
    if args.format == "json":
        sys.stdout.write(_json_dump(table.to_json_obj()) + "\n")
    else:
        rows = [[str(s), str(c)] for s, c in table.rows()]
        sys.stdout.write(_emit_table(["s", "count"], rows, args.format))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    ids = args.id if args.id else list(recurrences.CATALOG)
    latest = max(ids, key=lambda identity_id: recurrences.CATALOG[identity_id].min_index)
    first = recurrences.CATALOG[latest].min_index
    if args.n_max < first:
        raise ValueError(f"argument --n-max: {args.n_max} is below the first index {first} of identity {latest}")
    reports = [recurrences.verify_identity(identity_id, stop=args.n_max) for identity_id in ids]
    if args.format == "json":
        payload = {
            "all_hold": all(r.all_hold for r in reports),
            "reports": [r.to_json_obj() for r in reports],
        }
        sys.stdout.write(_json_dump(payload) + "\n")
    else:
        rows = []
        for r in reports:
            failure = r.first_failure
            rows.append(
                [
                    r.identity_id,
                    f"{r.start}..{r.stop}",
                    str(len(r.checks)),
                    "pass" if r.all_hold else "FAIL",
                    "" if failure is None else f"n={failure.index}: {failure.diff.to_text()}",
                ]
            )
        sys.stdout.write(_emit_table(["identity", "range", "checked", "status", "first failure"], rows, args.format))
    return EXIT_OK if all(r.all_hold for r in reports) else EXIT_MATH_FAILURE


def _clearing_degree(kind: str, n: int) -> int:
    """Degree of the pole-clearing factor; the series must reach it."""
    power, plus = genfun.clearing_factor(kind, n)
    return power + plus


def _cmd_table(args: argparse.Namespace) -> int:
    kind = "line" if args.el else "cycle"
    ns = [args.n] if args.n is not None else list(range(args.n_max + 1))
    if args.order is not None:
        degree, n = max((_clearing_degree(kind, n), n) for n in ns)
        if args.order < degree:
            raise ValueError(f"argument --order: must be at least {degree} for n={n}, got {args.order}")
    reports = [genfun.ehrhart_numerator(kind, n, args.order) for n in ns]
    if args.format == "json":
        sys.stdout.write(_json_dump([r.to_json_obj() for r in reports]) + "\n")
    elif args.format == "csv":
        lines = ["n,coefficients"]
        lines += [f"{r.n}," + ";".join(str(c) for c in r.coefficients()) for r in reports]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        rows = [[str(r.n), ", ".join(str(c) for c in r.coefficients())] for r in reports]
        sys.stdout.write(_emit_table(["n", "numerator coefficients"], rows, args.format))
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    loops = _parse_loops(args.loops, args.n)
    if any(k < 1 for k in loops):
        raise ValueError("fit requires at least one loop on every vertex")
    fit = genfun.fit_cycle(args.n, loops, holdout=args.holdout)
    predicted = genfun.psi_formula(args.n, loops)
    match = fit.psi == predicted
    if args.format == "json":
        payload = fit.to_json_obj()
        payload["predicted_psi"] = poly.coeff_to_str(predicted)
        payload["match"] = match
        sys.stdout.write(_json_dump(payload) + "\n")
    else:
        joiner = ";" if args.format == "csv" else ", "
        rows = [
            ["degree", str(fit.degree)],
            ["phi", joiner.join(poly.coeff_to_str(c) for c in fit.phi)],
            ["psi", poly.coeff_to_str(fit.psi)],
            ["predicted psi", poly.coeff_to_str(predicted)],
            ["verdict", "MATCH" if match else "MISMATCH"],
        ]
        sys.stdout.write(_emit_table(["field", "value"], rows, args.format))
    return EXIT_OK if match else EXIT_MATH_FAILURE


def _cmd_series(args: argparse.Namespace) -> int:
    if args.s is not None:
        for option, value in (("-n", args.n), ("-k", args.loops)):
            if value is not None:
                raise ValueError(f"argument {option}: not allowed with argument -s")
        if args.line:
            coeffs = genfun.line_series_in_y(args.s, args.order)
            label = "line counts by vertex count"
        else:
            coeffs = genfun.cycle_series_in_y(args.s, args.order)
            label = "cycle counts by vertex count"
        meta = {"magic_sum": args.s, "series": label}
    else:
        if args.line:
            raise ValueError("line series in the magic-sum variable: use the table command")
        if args.n is None or args.loops is None:
            raise ValueError("cycle series in the magic-sum variable needs -n and -k")
        loops = _parse_loops(args.loops, args.n)
        coeffs = genfun.cycle_series(args.n, loops, args.order)
        meta = {"n": args.n, "loops": list(loops), "series": "cycle counts by magic sum"}
    if args.format == "json":
        payload = dict(meta)
        payload["coefficients"] = [poly.coeff_to_str(c) for c in coeffs]
        sys.stdout.write(_json_dump(payload) + "\n")
    else:
        rows = [[str(i), poly.coeff_to_str(c)] for i, c in enumerate(coeffs)]
        sys.stdout.write(_emit_table(["index", "coefficient"], rows, args.format))
    return EXIT_OK


def _check_polytope_size(args: argparse.Namespace) -> None:
    """Reject sizes the requested listing cannot take, before any work."""
    n = args.n
    if args.series is None and n < 3:
        raise ValueError(f"argument -n: the cycle needs n >= 3, got {n}")
    if (args.hyperplane or args.series is not None) and n % 2 == 0:
        mode = "--hyperplane" if args.hyperplane else "--series"
        raise ValueError(f"argument -n: {mode} needs odd n, got {n}")
    if args.series is not None:
        return
    sets = n if args.hyperplane else sum(polytope.kaplansky_count(n, k) for k in range(n // 2 + 1))
    if sets * n > polytope.MAX_LISTED_CELLS:
        raise labelings.InstanceTooLarge(
            f"argument -n: listing {sets} sets for n={n} exceeds the work budget "
            f"(sets times n is {sets * n}, more than {polytope.MAX_LISTED_CELLS})"
        )


def _cmd_polytope(args: argparse.Namespace) -> int:
    _check_polytope_size(args)
    if args.stable:
        sets = polytope.stable_sets(args.n)
        if args.format == "json":
            sys.stdout.write(_json_dump({"n": args.n, "stable_sets": [list(s) for s in sets]}) + "\n")
        else:
            rows = [[str(i), "{" + ", ".join(map(str, s)) + "}"] for i, s in enumerate(sets)]
            sys.stdout.write(_emit_table(["index", "stable set"], rows, args.format))
        return EXIT_OK
    if args.series is not None:
        coeffs = polytope.simplex_series(args.n, args.series)
        if args.format == "json":
            payload = {"n": args.n, "coefficients": [poly.coeff_to_str(c) for c in coeffs]}
            sys.stdout.write(_json_dump(payload) + "\n")
        else:
            rows = [[str(i), poly.coeff_to_str(c)] for i, c in enumerate(coeffs)]
            sys.stdout.write(_emit_table(["s", "count"], rows, args.format))
        return EXIT_OK
    verts = polytope.hyperplane_vertices(args.n) if args.hyperplane else polytope.vertices(args.n)
    if args.format == "json":
        sys.stdout.write(_json_dump({"n": args.n, "vertices": [v.to_json_obj() for v in verts]}) + "\n")
    else:
        rows = []
        for v in verts:
            alpha, beta = v.coordinate_texts()
            support = "fractional" if v.is_fractional else "{" + ", ".join(map(str, v.support)) + "}"
            rows.append([support, " ".join(alpha), " ".join(beta)])
        sys.stdout.write(_emit_table(["stable set", "alpha", "beta"], rows, args.format))
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magiccount",
        description="Exact counting of magic labelings of pseudo-line and pseudo-cycle graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[common], help="tabulate h(s) for one graph")
    shape = p_count.add_mutually_exclusive_group(required=True)
    shape.add_argument("--line", action="store_true")
    shape.add_argument("--cycle", action="store_true")
    p_count.add_argument("-n", type=_size, required=True, help="number of vertices")
    p_count.add_argument("-m", type=_size, default=None, help="loops per vertex (line; default 2)")
    p_count.add_argument("-k", dest="loops", default=None, help="loop vector, e.g. 1,2,1 (cycle; default 2)")
    p_count.add_argument("--s-max", type=_size, default=8)
    p_count.add_argument("--brute", action="store_true", help="use the enumeration oracle")
    p_count.add_argument("--brute-cap", type=_size, default=10, help="max edge variables for --brute")
    p_count.add_argument("--brute-s-cap", type=_size, default=8, help="max magic sum for --brute")
    p_count.set_defaults(handler=_cmd_count)

    p_verify = sub.add_parser("verify", parents=[common], help="certify the identity catalog")
    p_verify.add_argument("--all", action="store_true", help="check every identity (default)")
    p_verify.add_argument("--id", action="append", choices=sorted(IDENTITY_IDS), help="check one identity")
    p_verify.add_argument("--n-max", type=_size, default=12)
    p_verify.set_defaults(handler=_cmd_verify)

    p_table = sub.add_parser("table", parents=[common], help="numerators of magic-sum series")
    which = p_table.add_mutually_exclusive_group(required=True)
    which.add_argument("--el", action="store_true", help="pseudo-line rows")
    which.add_argument("--ec", action="store_true", help="pseudo-cycle rows")
    p_table.add_argument("-n", type=_size, default=None)
    p_table.add_argument("--n-max", type=_size, default=4)
    p_table.add_argument("--order", type=_size, default=None)
    p_table.set_defaults(handler=_cmd_table)

    p_fit = sub.add_parser("fit", parents=[common], help="fit phi(s) + (-1)^s psi to cycle counts")
    p_fit.add_argument("--cycle", action="store_true", help="accepted for symmetry; fits are cycles")
    p_fit.add_argument("-n", type=_size, required=True)
    p_fit.add_argument("-k", dest="loops", required=True)
    p_fit.add_argument("--holdout", type=_size, default=10)
    p_fit.set_defaults(handler=_cmd_fit)

    p_series = sub.add_parser("series", parents=[common], help="series expansions")
    shape = p_series.add_mutually_exclusive_group(required=True)
    shape.add_argument("--line", action="store_true")
    shape.add_argument("--cycle", action="store_true")
    p_series.add_argument("-s", type=_size, default=None, help="magic sum (series in the vertex count)")
    p_series.add_argument("-n", type=_size, default=None, help="vertices (series in the magic sum)")
    p_series.add_argument("-k", dest="loops", default=None)
    p_series.add_argument("--order", type=_size, default=8)
    p_series.set_defaults(handler=_cmd_series)

    p_poly = sub.add_parser("polytope", parents=[common], help="vertices and stable sets")
    p_poly.add_argument("-n", type=_size, required=True)
    listing = p_poly.add_mutually_exclusive_group()
    listing.add_argument("--stable", action="store_true", help="list stable sets instead")
    listing.add_argument("--hyperplane", action="store_true", help="only the slice vertices")
    listing.add_argument("--series", type=_size, default=None, help="simplex series to this order")
    p_poly.set_defaults(handler=_cmd_polytope)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # Arguments are parsed under the default digit limit; answers are exact
    # and may be longer than it.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except labelings.InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (genfun.NotStabilized, genfun.InconsistentSamples) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_FAILURE
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (recurrences.UnknownIdentity, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
