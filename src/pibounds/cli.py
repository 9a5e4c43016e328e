"""Command-line surface.

Subcommands: bounds, table, cf, approx, series, export-fig3.  All numeric
output is printed from exact fixed-point endpoints or exact rationals, so
identical invocations are byte-identical.

Exit codes: 0 success, 1 the reader closed stdout (no traceback; ``--help``
too), 2 argument error, 3 precision/resource failure, 4 no valid bound under
the denominator cap.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable, Iterator

from . import contfrac, polygon, series
from .exactnum import (PI_REFERENCE, PiBoundsError, Rational, Side, UsageError,
                       decimal_str, fraction_str, int_str)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_NO_BOUND = 4
EXIT_CODES = {UsageError: EXIT_USAGE, polygon.PrecisionExhausted: EXIT_PRECISION,
              polygon.ResourceLimit: EXIT_PRECISION,
              contfrac.NoValidBound: EXIT_NO_BOUND}


def _json_text(obj: object) -> str:
    """``json.dumps(obj, ensure_ascii=False)``.  json writes an int with
    ``int.__repr__``, which refuses one past the int-to-str digit limit; the
    text is then built here, with every int written by ``int_str``."""
    # imported here, its only use: a text or csv run then never loads json
    # and the four modules it pulls in
    import json

    try:
        return json.dumps(obj, ensure_ascii=False)
    except ValueError:
        pass

    def write(value: object) -> str:
        if isinstance(value, dict):
            return "{" + ", ".join(f"{write(k)}: {write(v)}"
                                   for k, v in value.items()) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(map(write, value)) + "]"
        if type(value) is int:
            return int_str(value)
        return json.dumps(value, ensure_ascii=False)

    return write(obj)


def _row(bounds: polygon.PolygonBounds, digits: int,
         forms: bool = False) -> dict[str, object]:
    """A rung's cells, keyed by CSV header and JSON name: ``n``, then c_lo, c_hi,
    C_lo, C_hi outward-rounded (lo floored, hi ceiled), with ``forms`` each
    pair after its closed form ``c_form`` or ``C_form``."""
    row: dict[str, object] = {"n": bounds.n}
    for name, enclosure in (("c", bounds.lower), ("C", bounds.upper)):
        if forms:
            row[f"{name}_form"] = polygon.nested_radical_form(bounds.n, name).render()
        row[f"{name}_lo"], row[f"{name}_hi"] = enclosure.decimal_bounds(digits)
    return row


def _csv_line(row: dict[str, object]) -> str:
    n, *cells = row.values()
    return ",".join((int_str(n), *cells))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args: argparse.Namespace) -> None:
    row = _row(polygon.bounds_at(args.doublings, args.digits, args.max_precision),
               args.digits)
    if args.format == "csv":
        print(",".join(row), _csv_line(row), sep="\n")
    elif args.format == "json":
        print(_json_text({"command": "bounds", "doublings": args.doublings,
                          "digits": args.digits, **row}))
    else:
        print(f"n = {int_str(row['n'])}")
        print(f"c_n in [{row['c_lo']}, {row['c_hi']}]")
        print(f"C_n in [{row['C_lo']}, {row['C_hi']}]")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def cmd_table(args: argparse.Namespace) -> None:
    rows = [_row(bounds, args.digits, forms=True) for bounds in
            polygon.ladder(args.max_doublings, args.digits, args.max_precision)]
    if args.format == "csv":
        print(",".join(rows[0]), *map(_csv_line, rows), sep="\n")
    elif args.format == "json":
        print(_json_text({
            "command": "table",
            "max_doublings": args.max_doublings,
            "digits": args.digits,
            "rows": rows,
        }))
    else:
        header = ("n", "c_n closed form", "c_n enclosure",
                  "C_n closed form", "C_n enclosure")
        cells = [header] + [
            (int_str(r["n"]), str(r["c_form"]), f"[{r['c_lo']}, {r['c_hi']}]",
             str(r["C_form"]), f"[{r['C_lo']}, {r['C_hi']}]") for r in rows]
        widths = [max(len(row[i]) for row in cells) for i in range(5)]
        for row in cells:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


# ---------------------------------------------------------------------------
# cf
# ---------------------------------------------------------------------------

def _print_convergents(texts: Iterator[str], verdicts: Iterable[Side] | None = None,
                       width: int = 0) -> None:
    """One line per convergent, written as its text is made.  Numerators and
    denominators never decrease, so the verdict column's ``width`` is the
    length of the last convergent's text, known before the first line.  The
    word is the member's ``_value_``, which runs no Enum descriptor code."""
    print("convergents:")
    if verdicts is None:
        lines = (f"  {i}: {text}\n" for i, text in enumerate(texts))
    else:
        lines = (f"  {i}: {text.ljust(width)}  {verdict._value_}\n"
                 for i, (text, verdict) in enumerate(zip(texts, verdicts)))
    sys.stdout.writelines(lines)


def cmd_cf(args: argparse.Namespace) -> None:
    if args.value is not None:
        q = contfrac.parse_decimal(args.value)
        cf = contfrac.expand(q)
        print(f"value = {args.value} = {fraction_str(q)}")
        print(f"coefficients = {cf}")
        _print_convergents(contfrac.convergent_texts(cf))
        return
    exp = contfrac.bound_expansion(args.doublings, args.digits,
                                   args.from_bound,
                                   max_precision=args.max_precision)
    label = "c_n" if exp.which == "lower" else "C_n"
    # the decimal is reduced, so it is the last convergent
    last = fraction_str(exp.decimal)
    print(f"bound = {exp.which} ({label}), n = {int_str(exp.n)}, digits = {exp.digits}")
    print(f"decimal = {exp.decimal_text} = {last}")
    print(f"coefficients = {exp.cf}")
    _print_convergents(contfrac.convergent_texts(exp.cf), exp.verdicts, len(last))


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------

def _print_candidates(exp: contfrac.BoundExpansion) -> None:
    """The ``{which} candidates`` line, written one candidate at a time."""
    print(f"{exp.which} candidates (from {exp.decimal_text}): ", end="")
    sys.stdout.writelines(
        f"{'; ' if i else ''}{text} {verdict._value_}"
        f"{' (over cap)' if i >= exp.cap_end else ''}"
        for i, (text, verdict) in enumerate(zip(
            contfrac.convergent_texts(exp.cf), exp.verdicts)))
    print()


def cmd_approx(args: argparse.Namespace) -> None:
    result = contfrac.certified_rational_bounds(
        args.doublings, args.digits, args.den_cap, args.max_precision)
    print(f"n = {int_str(result.n)}, den_cap = {result.den_cap}")
    _print_candidates(result.lower_expansion)
    _print_candidates(result.upper_expansion)
    print(f"lower = {fraction_str(result.lower)} (certified below the c_n enclosure)")
    print(f"upper = {fraction_str(result.upper)} (certified above the C_n enclosure)")
    print(f"{fraction_str(result.lower)} < pi < {fraction_str(result.upper)}")


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def cmd_series(args: argparse.Namespace) -> None:
    # rows print as the pass yields them, so only one exact row is alive
    for row in series.iter_report([args.series], args.terms, args.digits):
        cell, error = row.cells(args.digits)
        print(f"{row.series}  N={row.terms}  {cell}  error={error}")


# ---------------------------------------------------------------------------
# export-fig3
# ---------------------------------------------------------------------------

_REFERENCES = (
    ("22/7", Rational(22, 7)),
    ("223/71", Rational(223, 71)),
    ("245/78", Rational(245, 78)),
    ("pi_reference", PI_REFERENCE),
)


def cmd_export_fig3(args: argparse.Namespace) -> None:
    lines = [_csv_line(_row(bounds, args.digits)) for bounds in
             polygon.ladder(args.max_doublings, args.digits, args.max_precision)]
    print("n,c_n,c_n_hi,C_n,C_n_hi", *lines, sep="\n")
    for label, value in _REFERENCES:
        cell = decimal_str(value, args.digits)
        print(f"{label},{cell},{cell},{cell},{cell}")


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pibounds",
        description="Certified rational and interval bounds for pi.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_precision_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-precision", type=int, default=polygon.DEFAULT_MAX_PRECISION,
                       help="cap (>= 1) on the rung budget digits + 10 + doublings")

    p = sub.add_parser("bounds", help="perimeter enclosures after k doublings")
    p.add_argument("--doublings", type=int, required=True)
    p.add_argument("--digits", type=int, default=8)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    add_precision_flag(p)

    p = sub.add_parser("table", help="closed forms and values for k = 0..K")
    p.add_argument("--max-doublings", type=int, required=True)
    p.add_argument("--digits", type=int, default=8)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    add_precision_flag(p)

    p = sub.add_parser("cf", help="continued fraction expansion and convergents")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--value", help="positive decimal literal to expand")
    source.add_argument("--from-bound", choices=("lower", "upper"),
                        help="expand a perimeter bound instead of a literal")
    p.add_argument("--doublings", type=int, default=5)
    p.add_argument("--digits", type=int, default=8)
    add_precision_flag(p)

    p = sub.add_parser("approx", help="certified rational bracket of pi")
    p.add_argument("--doublings", type=int, required=True)
    p.add_argument("--digits", type=int, default=8)
    p.add_argument("--den-cap", type=int, default=100)
    add_precision_flag(p)

    p = sub.add_parser("series", help="classical series estimates of pi")
    p.add_argument("--series", choices=series.SERIES_NAMES, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--digits", type=int, default=8)

    p = sub.add_parser("export-fig3",
                       help="CSV of enclosures per n plus reference constants")
    p.add_argument("--max-doublings", type=int, required=True)
    p.add_argument("--digits", type=int, default=8)
    add_precision_flag(p)

    return parser


# Built once: a parser is hundreds of objects in reference cycles, and one per
# call set off a full collection (milliseconds) every few hundred calls.
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Every path, argparse's exit (help or a usage error) included, ends by
    flushing stdout, so a reader that closed it gives exit 1 and no
    traceback.  With unbuffered stdout (``PYTHONUNBUFFERED``), argparse
    drops the ``OSError`` of writing help itself, and ``--help`` exits 0.
    """
    try:
        try:
            args = _shared_parser().parse_args(argv)
            # each subcommand names its handler: export-fig3 runs cmd_export_fig3
            globals()["cmd_" + args.command.replace("-", "_")](args)
            code = EXIT_OK
        except SystemExit as exc:
            code = int(exc.code or 0)
        except PiBoundsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: what is still buffered goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
