"""Command-line front end.

Subcommands map onto the library: count and census for distinct
products, multiplicity for single table entries, bounds for the explicit
d/sigma bounds at one argument, series for the square identity, and
verify for the sweep suites.  multiplicity always computes both of its
routes and compares them.  count and census still accept --parallel for
old command lines; it has no effect, since the library decides from the
size of the table whether to fork counting workers.  Exit status: 0
clean, 1 when any violation was reported (or multiplicity's routes
disagree), 2 for usage or domain errors.

An option's value may start with "-": a negative --robin-c such as
-1.7e308 or -1/2, or an --s such as -1,1, reads the same after a space
as after "=".

A handler returns (json payload, text lines, exit code), and count and
census add csv lines; run picks the format and prints.  A warning the
library raises on the way is printed as one "warning: ..." line on
stderr, as an error is printed as "error: ...".

Each command is declared once, in a table of its handler, help text and
options.  A command line that is a command followed only by that
command's options, spelled out in full, each value valid and every
required option given, is read from the table directly.  Any other
(help, no arguments, an unknown command, an abbreviated or unknown
option, a root option such as --format before the command, a bad or
missing value) goes to the argparse parser built from the same table,
so help and usage errors read as they always have; argparse is imported
only then.  An argument a command does not know is reported with that
command's usage line, an unknown root option before the command with
the root's.

json and csv output format every float with exactly 10 fractional
digits, so a command line produces identical bytes on every run apart
from elapsed-time fields.  json writes a float that is not finite as
the string "Infinity", "-Infinity" or "NaN" (protobuf's JSON spelling,
which float() reads back), so the output stays valid JSON.  A report
is written as vars(r), not asdict(r), which deep-copies each field.
"""

from __future__ import annotations

import json
import math
import re
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import bounds as bnd
from . import products, series
from .multiplicity import multiplicity_direct, multiplicity_formula


def _ffmt(x: float) -> str:
    return f"{x:.10f}"


def _to_json(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _ffmt(value) if math.isfinite(value) else f'"{json.dumps(value)}"'
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in value.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _report_line(r: bnd.BoundReport) -> str:
    label = "VIOLATION" if r.violated else "BORDERLINE"
    b = r.bound
    bound = f"({_ffmt(b[0])}, {_ffmt(b[1])})" if isinstance(b, tuple) else _ffmt(b)
    return (
        f"{label} {r.quantity} at n={r.argument}: value {r.value:g} "
        f"vs bound {bound} (margin {_ffmt(r.margin)})"
    )


def _header_line(header: dict) -> str:
    return ", ".join(f"{k} {v}" for k, v in header.items())


def _census_csv(points: list[products.TableCensus]) -> list[str]:
    return ["n,m,density,mean_multiplicity"] + [
        f"{p.n},{p.distinct_count},{_ffmt(p.density)},{_ffmt(p.mean_multiplicity)}"
        for p in points
    ]


def _census_row(p: products.TableCensus) -> dict:
    return {
        "n": p.n,
        "m": p.distinct_count,
        "density": p.density,
        "mean_multiplicity": p.mean_multiplicity,
        "elapsed": p.elapsed,
    }


def _cmd_count(args):
    (p,) = products.census([args.n])
    text = (
        f"M({p.n}) = {p.distinct_count}  density {_ffmt(p.density)}  "
        f"mean multiplicity {_ffmt(p.mean_multiplicity)}  [{p.elapsed:.3f}s]"
    )
    return _census_row(p), [text], 0, _census_csv([p])


def _cmd_census(args):
    n_values = [int(part) for part in args.n_list.split(",") if part.strip()]
    if not n_values:
        raise ValueError("--n-list must contain at least one integer")
    points = products.census(n_values, args.cache)
    text = [
        f"{'n':>8} {'m':>14} {'density':>14} {'mean_mult':>14} "
        f"{'erdos_ref':>12} {'ford_ref':>12}  elapsed"
    ]
    for p in points:
        if p.n >= 3:
            ref = bnd.reference_densities(p.n)
            erdos = _ffmt(ref["erdos_density"])[:12]
            ford = _ffmt(ref["ford_density"])[:12]
        else:
            erdos = ford = "-"
        text.append(
            f"{p.n:>8} {p.distinct_count:>14} {_ffmt(p.density):>14} "
            f"{_ffmt(p.mean_multiplicity):>14} {erdos:>12} {ford:>12}  "
            f"{p.elapsed:.3f}s"
        )
    text.append(
        f"# reference curves use exponent {bnd.ERDOS_EXPONENT:.4f}; the "
        f"commonly quoted exponent is {bnd.ERDOS_EXPONENT_COMMON:.4f}"
    )
    return {"rows": [_census_row(p) for p in points]}, text, 0, _census_csv(points)


def _cmd_multiplicity(args):
    n, k = args.n, args.k
    direct, formula = multiplicity_direct(n, k), multiplicity_formula(n, k)
    agree = direct == formula
    payload = {"n": n, "k": k, "direct": direct, "formula": formula, "agree": agree}
    text = f"multiplicity of {k} in the {n}-table: direct {direct}, formula {formula}, "
    return payload, [text + ("agree" if agree else "DISAGREE")], 0 if agree else 1


def _cmd_bounds(args):
    k, robin_c = args.k, args.robin_c
    d = bnd.divisor_bound_at(k)
    sigma = bnd.sigma_bound_at(k, robin_c)
    bracket = bnd.verify_integral_bracket(k, robin_c=robin_c)
    reports = [d, sigma, bracket]
    flagged = [r for r in reports if r.violated or r.borderline]
    lower, upper = bracket.bound
    payload = {
        "k": k,
        "d": d.value,
        "sigma": sigma.value,
        "nicolas_bound": d.bound,
        "robin_bound": sigma.bound,
        "divisor_margin": d.margin,
        "sigma_margin": sigma.margin,
        "integral": int(bracket.value),
        "bracket_lower": lower,
        "bracket_upper": upper,
        "bracket_margin": bracket.margin,
        "robin_c": str(robin_c),
        "violations": [vars(r) for r in flagged],
    }
    text = [
        f"k = {k}",
        f"d(k) = {d.value}  nicolas bound = {_ffmt(d.bound)}  "
        f"margin = {_ffmt(d.margin)}",
        f"sigma(k) = {sigma.value}  robin bound = {_ffmt(sigma.bound)}  "
        f"margin = {_ffmt(sigma.margin)} (c = {robin_c})",
        f"k*d(k) - sigma(k) = {int(bracket.value)} in "
        f"({_ffmt(lower)}, {_ffmt(upper)})  margin = {_ffmt(bracket.margin)}",
        *map(_report_line, flagged),
    ]
    return payload, text, 1 if any(r.violated for r in reports) else 0


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"--s expects RE or RE,IM, got {text!r}")
    s = complex(*map(float, parts))
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"--s must be finite, got {text!r}")
    return s


def _cmd_series(args):
    s = _parse_s(args.s)
    cmp = series.verify_square_identity(s, args.n)
    payload = {
        "s_re": s.real,
        "s_im": s.imag,
        "n": cmp.n,
        "grid_re": cmp.grid_sum.real,
        "grid_im": cmp.grid_sum.imag,
        "zeta_squared_re": cmp.zeta_partial_squared.real,
        "zeta_squared_im": cmp.zeta_partial_squared.imag,
        "multiplicity_re": cmp.multiplicity_sum.real,
        "multiplicity_im": cmp.multiplicity_sum.imag,
        "max_abs_deviation": cmp.max_abs_deviation,
        "tolerance": cmp.tolerance,
        "ok": cmp.ok,
    }
    text = [
        f"s = {s}, n = {cmp.n}",
        f"grid sum            = {cmp.grid_sum}",
        f"zeta partial squared = {cmp.zeta_partial_squared}",
        f"multiplicity sum    = {cmp.multiplicity_sum}",
        f"max deviation {cmp.max_abs_deviation:.3e} "
        f"(tolerance {cmp.tolerance:.3e}) -> {'ok' if cmp.ok else 'FAIL'}",
    ]
    return payload, text, 0 if cmp.ok else 1


def _reports(header: dict, reports: list[bnd.BoundReport]):
    violated = sum(1 for r in reports if r.violated)
    borderline = sum(1 for r in reports if r.borderline)
    payload = {
        **header,
        "violations": [vars(r) for r in reports],
        "violated_count": violated,
        "borderline_count": borderline,
    }
    text = [
        _header_line(header),
        *map(_report_line, reports),
        f"{violated} violation(s), {borderline} borderline",
    ]
    return payload, text, 1 if violated else 0


def _monotonicity(header: dict, hi: int):
    increasing, above_floor = bnd.nicolas_shape_check(hi)
    payload = {
        **header,
        "increasing_from_114": increasing,
        "floor": bnd.SHAPE_FLOOR,
        "floor_holds": above_floor,
        "violated_count": (not increasing) + (not above_floor),
    }
    text = [
        _header_line(header),
        f"nicolas bound strictly increasing on [{bnd.SHAPE_START}, {hi}]: "
        f"{'yes' if increasing else 'NO'}",
        f"nicolas bound > {bnd.SHAPE_FLOOR} on [3, {hi}]: "
        f"{'yes' if above_floor else 'NO'}",
    ]
    return payload, text, 0 if increasing and above_floor else 1


# suite -> (default --max, runner(header, hi, robin_c) -> result); a
# runner adds its range to the header it is given, which holds the suite
_SUITES = {
    "identities": (25, lambda h, hi, c: _reports(
        h | {"max_n": hi}, series.verify_identities_sweep(hi))),
    "divisor-bound": (10**6, lambda h, hi, c: _reports(
        h | {"lo": 3, "hi": hi, "nicolas_c": str(bnd.NICOLAS_C)},
        bnd.verify_divisor_bound(3, hi))),
    "sigma-bound": (10**6, lambda h, hi, c: _reports(
        h | {"lo": 3, "hi": hi, "robin_c": str(c)}, bnd.verify_sigma_bound(3, hi, c))),
    "theorem": (500, lambda h, hi, c: _reports(
        h | {"lo": 2, "hi": hi}, bnd.verify_theorem_sweep(hi))),
    "bracket": (10**4, lambda h, hi, c: _reports(
        h | {"lo": 3, "hi": hi}, bnd.verify_bracket_sweep(3, hi, c))),
    "monotonicity": (10**6, lambda h, hi, c: _monotonicity(h | {"lo": 3, "hi": hi}, hi)),
}


def _cmd_verify(args):
    default_max, runner = _SUITES[args.suite]
    hi = default_max if args.max is None else args.max
    return runner({"suite": args.suite}, hi, args.robin_c)


def _robin_c(text: str) -> Fraction:
    """A Fraction whose float is finite, so every bound can be evaluated."""
    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        import argparse

        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None
    return value


def _opt(*strings: str, **keywords):
    """An option as add_argument takes it: its option strings and keywords.
    Every option spells out dest, and a flag its default, for _parse."""
    return strings, keywords


_FORMAT = _opt(
    "--format", dest="format", choices=("text", "json", "csv"), default="text",
    help="output format (csv only for count and census)",
)
_PARALLEL = _opt("--parallel", dest="parallel", action="store_true", default=False,
                 help="has no effect")
_ROBIN_C = _opt("--robin-c", dest="robin_c", type=_robin_c, default=bnd.ROBIN_C)

# command -> (handler, help, options); --format is accepted by every
# command as well as before the command
_COMMANDS = {
    "count": (_cmd_count, "count distinct products of one table", (
        _opt("--n", dest="n", type=int, required=True),
        _PARALLEL,
    )),
    "multiplicity": (_cmd_multiplicity, "multiplicity of one product", (
        _opt("--n", dest="n", type=int, required=True),
        _opt("--k", dest="k", type=int, required=True),
    )),
    "census": (_cmd_census, "distinct-product census over several n", (
        _opt("--n-list", dest="n_list", required=True, help="comma-separated n values"),
        _opt("--cache", dest="cache", default=None, help="CSV cache path (columns n,m)"),
        _PARALLEL,
    )),
    "verify": (_cmd_verify, "run one verification suite", (
        _opt("--suite", dest="suite", required=True, choices=tuple(_SUITES)),
        _opt("--max", "--n", dest="max", type=int, default=None,
             help="upper end of the sweep (identities: highest table size)"),
        _ROBIN_C,
    )),
    "bounds": (_cmd_bounds, "bounds and bracket at one argument", (
        _opt("--k", dest="k", type=int, required=True),
        _ROBIN_C,
    )),
    "series": (_cmd_series, "square identity at one (s, n)", (
        _opt("--s", dest="s", required=True, help="exponent, RE or RE,IM"),
        _opt("--n", dest="n", type=int, required=True),
    )),
}

# an argument that starts with "-" and a digit, or "-." and a digit, is
# a value, not an option: argparse's own rule takes only plain decimals,
# so "--robin-c -1.7e308", "--robin-c -1/2" and "--s -1,1" would read as
# options and fail with "expected one argument".  No option of mtable
# starts that way.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The args argparse parses from argv, read from _COMMANDS without
    building a parser; None for any command line this does not take
    whole, which argparse then parses or reports as it always has.

    Taken: a command, then options spelled out in full as "--opt value",
    "--opt=value" or a bare flag, each value converting with its type and
    within its choices, and every required option given.  A value after a
    space may start with "-" only as a negative number.  As in argparse,
    the last occurrence of an option wins."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[argv[0]]
    by_string = {s: kw for strings, kw in (_FORMAT, *options) for s in strings}
    args = {kw["dest"]: kw.get("default") for kw in by_string.values()}
    missing = {kw["dest"] for kw in by_string.values() if kw.get("required")}
    tokens = iter(argv[1:])
    for token in tokens:
        string, eq, text = token.partition("=")
        kw = by_string.get(string)
        if kw is None:
            return None
        if "action" in kw:  # a flag, which takes no value
            if eq:
                return None
            value = True
        else:
            if not eq:
                text = next(tokens, None)
                if text is None or text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
                    return None
            try:
                value = kw.get("type", str)(text)
            except Exception as exc:
                import argparse  # argparse reports these three and raises the rest

                if isinstance(exc, (argparse.ArgumentTypeError, TypeError, ValueError)):
                    return None
                raise
            if "choices" in kw and value not in kw["choices"]:
                return None
        args[kw["dest"]] = value
        missing.discard(kw["dest"])
    if missing:
        return None
    return SimpleNamespace(**args, command=argv[0], handler=handler)


def _build_parser():
    """The argparse parser of _COMMANDS, for help and usage errors."""
    import argparse

    class CommandParser(argparse.ArgumentParser):
        """A command's subparser.  It reports an argument it does not know
        with its own usage line, as "mtable COMMAND: error: ..."; argparse
        would hand the argument back to the root parser, which reports it
        with the root usage line."""

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            return namespace, extras

    parser = argparse.ArgumentParser(
        prog="mtable",
        description="Multiplication-table censuses, multiplicities, and bound checks.",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    format_strings, format_keywords = _FORMAT
    parser.add_argument(*format_strings, **format_keywords)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CommandParser)
    for name, (handler, help, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        # SUPPRESS keeps the subparser from clobbering a value parsed at
        # the root
        p.add_argument(*format_strings, **format_keywords | {"default": argparse.SUPPRESS})
        for strings, keywords in options:
            p.add_argument(*strings, **keywords)
        p.set_defaults(handler=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    if args.format == "csv" and args.command not in ("count", "census"):
        print("error: csv output is only available for count and census", file=sys.stderr)
        return 2
    try:
        # a constant that overflows a bound gives +-inf, which the verdict
        # rule already handles, so numpy's overflow warning is only noise
        with np.errstate(over="ignore"), warnings.catch_warnings(record=True) as caught:
            try:
                payload, text, code, *csv = args.handler(args)
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_to_json(payload))
    else:
        print(*(csv[0] if args.format == "csv" else text), sep="\n")
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
