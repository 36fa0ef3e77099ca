"""Command-line front end.

Subcommands map onto the library: count and census for distinct
products, multiplicity for single table entries, bounds for the explicit
d/sigma bounds at one argument, series for the square identity, and
verify for the sweep suites.  Exit status: 0 clean, 1 when any violation
was reported, 2 for usage or domain errors.

json and csv output format every float with exactly 10 fractional
digits, so a command line produces identical bytes on every run apart
from elapsed-time fields.  json writes a float that is not finite as
the string "Infinity", "-Infinity" or "NaN" (protobuf's JSON spelling,
which float() reads back), so the output stays valid JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import bounds as bnd
from . import products, series
from .multiplicity import multiplicity_direct, multiplicity_formula

_SUITE_DEFAULT_MAX = {
    "identities": 25,
    "divisor-bound": 10**6,
    "sigma-bound": 10**6,
    "theorem": 500,
    "bracket": 10**4,
    "monotonicity": 10**6,
}


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


def _report_dict(r: bnd.BoundReport) -> dict:
    bound = list(r.bound) if isinstance(r.bound, tuple) else r.bound
    return {
        "argument": r.argument,
        "quantity": r.quantity,
        "value": r.value,
        "bound": bound,
        "margin": r.margin,
        "violated": r.violated,
        "borderline": r.borderline,
    }


def _report_line(r: bnd.BoundReport) -> str:
    label = "VIOLATION" if r.violated else "BORDERLINE"
    if isinstance(r.bound, tuple):
        bound = f"({_ffmt(r.bound[0])}, {_ffmt(r.bound[1])})"
    else:
        bound = _ffmt(r.bound)
    return (
        f"{label} {r.quantity} at n={r.argument}: value {r.value:g} "
        f"vs bound {bound} (margin {_ffmt(r.margin)})"
    )


def _emit_reports(fmt: str, header: dict, reports: list[bnd.BoundReport]) -> int:
    violated = sum(1 for r in reports if r.violated)
    borderline = sum(1 for r in reports if r.borderline)
    if fmt == "json":
        payload = dict(header)
        payload["violations"] = [_report_dict(r) for r in reports]
        payload["violated_count"] = violated
        payload["borderline_count"] = borderline
        print(_to_json(payload))
    else:
        bits = ", ".join(f"{k} {v}" for k, v in header.items())
        print(bits)
        for r in reports:
            print(_report_line(r))
        print(f"{violated} violation(s), {borderline} borderline")
    return 1 if violated else 0


def _census_rows(points: list[products.TableCensus]) -> list[dict]:
    return [
        {
            "n": p.n,
            "m": p.distinct_count,
            "density": p.density,
            "mean_multiplicity": p.mean_multiplicity,
            "elapsed": p.elapsed,
        }
        for p in points
    ]


def _print_census_csv(points: list[products.TableCensus]):
    print("n,m,density,mean_multiplicity")
    for p in points:
        print(
            f"{p.n},{p.distinct_count},{_ffmt(p.density)},"
            f"{_ffmt(p.mean_multiplicity)}"
        )


def _print_census_text(points: list[products.TableCensus]):
    print(
        f"{'n':>8} {'m':>14} {'density':>14} {'mean_mult':>14} "
        f"{'erdos_ref':>12} {'ford_ref':>12}  elapsed"
    )
    for p in points:
        if p.n >= 3:
            ref = bnd.reference_densities(p.n)
            erdos = _ffmt(ref["erdos_density"])[:12]
            ford = _ffmt(ref["ford_density"])[:12]
        else:
            erdos = ford = "-"
        print(
            f"{p.n:>8} {p.distinct_count:>14} {_ffmt(p.density):>14} "
            f"{_ffmt(p.mean_multiplicity):>14} {erdos:>12} {ford:>12}  "
            f"{p.elapsed:.3f}s"
        )
    print(
        f"# reference curves use exponent {bnd.ERDOS_EXPONENT:.4f}; the "
        f"commonly quoted exponent is {bnd.ERDOS_EXPONENT_COMMON:.4f}"
    )


def _cmd_count(args) -> int:
    point = products.census(
        [args.n], None, segment_bits=args.segment_bits, parallel=args.parallel
    )[0]
    if args.format == "json":
        print(_to_json(_census_rows([point])[0]))
    elif args.format == "csv":
        _print_census_csv([point])
    else:
        print(
            f"M({point.n}) = {point.distinct_count}  density {_ffmt(point.density)}  "
            f"mean multiplicity {_ffmt(point.mean_multiplicity)}  "
            f"[{point.elapsed:.3f}s]"
        )
    return 0


def _cmd_census(args) -> int:
    n_values = [int(part) for part in args.n_list.split(",") if part.strip()]
    if not n_values:
        raise ValueError("--n-list must contain at least one integer")
    points = products.census(
        n_values, args.cache, segment_bits=args.segment_bits, parallel=args.parallel
    )
    if args.format == "json":
        print(_to_json({"rows": _census_rows(points)}))
    elif args.format == "csv":
        _print_census_csv(points)
    else:
        _print_census_text(points)
    return 0


def _cmd_multiplicity(args) -> int:
    if args.method in ("direct", "formula"):
        fn = multiplicity_direct if args.method == "direct" else multiplicity_formula
        count = fn(args.n, args.k)
        if args.format == "json":
            print(_to_json(
                {"n": args.n, "k": args.k, "method": args.method, "count": count}
            ))
        else:
            print(
                f"multiplicity of {args.k} in the {args.n}-table: {count} "
                f"({args.method})"
            )
        return 0
    direct = multiplicity_direct(args.n, args.k)
    formula = multiplicity_formula(args.n, args.k)
    agree = direct == formula
    if args.format == "json":
        print(_to_json(
            {
                "n": args.n,
                "k": args.k,
                "direct": direct,
                "formula": formula,
                "agree": agree,
            }
        ))
    else:
        status = "agree" if agree else "DISAGREE"
        print(
            f"multiplicity of {args.k} in the {args.n}-table: "
            f"direct {direct}, formula {formula}, {status}"
        )
    return 0 if agree else 1


def _cmd_bounds(args) -> int:
    k = args.k
    robin_c = args.robin_c
    # a constant that overflows a bound gives +-inf, which the verdict
    # rule already handles, so numpy's overflow warning is only noise
    with np.errstate(over="ignore"):
        d = bnd.divisor_bound_at(k)
        sigma = bnd.sigma_bound_at(k, robin_c)
        bracket = bnd.verify_integral_bracket(k, robin_c=robin_c)
    reports = [d, sigma, bracket]
    flagged = [r for r in reports if r.violated or r.borderline]
    if args.format == "json":
        payload = {
            "k": k,
            "d": d.value,
            "sigma": sigma.value,
            "nicolas_bound": d.bound,
            "robin_bound": sigma.bound,
            "divisor_margin": d.margin,
            "sigma_margin": sigma.margin,
            "integral": int(bracket.value),
            "bracket_lower": bracket.bound[0],
            "bracket_upper": bracket.bound[1],
            "bracket_margin": bracket.margin,
            "robin_c": str(robin_c),
            "violations": [_report_dict(r) for r in flagged],
        }
        print(_to_json(payload))
    else:
        print(f"k = {k}")
        print(
            f"d(k) = {d.value}  nicolas bound = {_ffmt(d.bound)}  "
            f"margin = {_ffmt(d.margin)}"
        )
        print(
            f"sigma(k) = {sigma.value}  robin bound = {_ffmt(sigma.bound)}  "
            f"margin = {_ffmt(sigma.margin)} (c = {robin_c})"
        )
        print(
            f"k*d(k) - sigma(k) = {int(bracket.value)} in "
            f"({_ffmt(bracket.bound[0])}, {_ffmt(bracket.bound[1])})  "
            f"margin = {_ffmt(bracket.margin)}"
        )
        for r in flagged:
            print(_report_line(r))
    return 1 if any(r.violated for r in reports) else 0


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"--s expects RE or RE,IM, got {text!r}")


def _cmd_series(args) -> int:
    s = _parse_s(args.s)
    cmp = series.verify_square_identity(s, args.n)
    if args.format == "json":
        print(_to_json(
            {
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
        ))
    else:
        print(f"s = {s}, n = {cmp.n}")
        print(f"grid sum            = {cmp.grid_sum}")
        print(f"zeta partial squared = {cmp.zeta_partial_squared}")
        print(f"multiplicity sum    = {cmp.multiplicity_sum}")
        print(
            f"max deviation {cmp.max_abs_deviation:.3e} "
            f"(tolerance {cmp.tolerance:.3e}) -> {'ok' if cmp.ok else 'FAIL'}"
        )
    return 0 if cmp.ok else 1


def _cmd_verify(args) -> int:
    suite = args.suite
    hi = args.max if args.max is not None else _SUITE_DEFAULT_MAX[suite]
    header: dict = {"suite": suite}
    if suite == "identities":
        header["max_n"] = hi
        reports = series.verify_identities_sweep(hi)
    elif suite == "theorem":
        header.update(lo=2, hi=hi)
        reports = bnd.verify_theorem_sweep(hi)
    elif suite != "monotonicity":
        # as in _cmd_bounds, a constant that overflows a bound gives
        # +-inf, which the verdict rule handles; the warning is noise
        with np.errstate(over="ignore"):
            if suite == "divisor-bound":
                header.update(lo=3, hi=hi, nicolas_c=str(bnd.NICOLAS_C))
                reports = bnd.verify_divisor_bound(3, hi)
            elif suite == "sigma-bound":
                header.update(lo=3, hi=hi, robin_c=str(args.robin_c))
                reports = bnd.verify_sigma_bound(3, hi, args.robin_c)
            else:  # bracket
                header.update(lo=3, hi=hi)
                reports = bnd.verify_bracket_sweep(3, hi, args.robin_c)
    else:
        increasing, above_floor = bnd.nicolas_shape_check(hi)
        ok = increasing and above_floor
        if args.format == "json":
            print(_to_json(
                {
                    "suite": suite,
                    "lo": 3,
                    "hi": hi,
                    "increasing_from_114": increasing,
                    "floor": 114.1,
                    "floor_holds": above_floor,
                    "violated_count": (not increasing) + (not above_floor),
                }
            ))
        else:
            print(f"suite monotonicity, lo 3, hi {hi}")
            print(f"nicolas bound strictly increasing on [114, {hi}]: "
                  f"{'yes' if increasing else 'NO'}")
            print(f"nicolas bound > 114.1 on [3, {hi}]: "
                  f"{'yes' if above_floor else 'NO'}")
        return 0 if ok else 1
    return _emit_reports(args.format, header, reports)


def _add_format_flag(p: argparse.ArgumentParser, root: bool = False):
    # accepted on either side of the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the root
    p.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text" if root else argparse.SUPPRESS,
        help="output format (csv only for count and census)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtable",
        description="Multiplication-table censuses, multiplicities, and bound checks.",
    )
    _add_format_flag(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count distinct products of one table")
    _add_format_flag(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--segment-bits", type=int, default=products.SEGMENT_BITS_DEFAULT,
        help="window length in values (default %(default)s)",
    )
    p.add_argument("--parallel", action="store_true")

    p = sub.add_parser("multiplicity", help="multiplicity of one product")
    _add_format_flag(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("direct", "formula", "both"), default="both")

    p = sub.add_parser("census", help="distinct-product census over several n")
    _add_format_flag(p)
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--cache", default=None, help="CSV cache path (columns n,m)")
    p.add_argument(
        "--segment-bits", type=int, default=products.SEGMENT_BITS_DEFAULT,
        help="window length in values (default %(default)s)",
    )
    p.add_argument("--parallel", action="store_true")

    p = sub.add_parser("verify", help="run one verification suite")
    _add_format_flag(p)
    p.add_argument(
        "--suite",
        required=True,
        choices=tuple(_SUITE_DEFAULT_MAX),
    )
    p.add_argument(
        "--max", "--n", dest="max", type=int, default=None,
        help="upper end of the sweep (identities: highest table size)",
    )
    p.add_argument("--robin-c", type=Fraction, default=bnd.ROBIN_C)

    p = sub.add_parser("bounds", help="bounds and bracket at one argument")
    _add_format_flag(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--robin-c", type=Fraction, default=bnd.ROBIN_C)

    p = sub.add_parser("series", help="square identity at one (s, n)")
    _add_format_flag(p)
    p.add_argument("--s", required=True, help="exponent, RE or RE,IM")
    p.add_argument("--n", type=int, required=True)

    return parser


_HANDLERS = {
    "count": _cmd_count,
    "census": _cmd_census,
    "multiplicity": _cmd_multiplicity,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "series": _cmd_series,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.format == "csv" and args.command not in ("count", "census"):
        print("error: csv output is only available for count and census", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
