"""Command-line behavior: formats, exit codes, flag placement."""

import ast
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import cli_parity
from oracles import count_distinct_dense, grown_with_extra_count

from mtable import bounds, cli, products, series
from mtable.bounds import SWEEP_MAX
from mtable.products import COUNT_N_MAX


def run(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "100", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["n"] == 100
    assert row["m"] == 2906


def test_format_flag_position_invariant(capsys):
    code1, out1, _ = run(capsys, "--format", "json", "count", "--n", "50")
    code2, out2, _ = run(capsys, "count", "--n", "50", "--format", "json")
    assert code1 == code2 == 0

    def stable(text):
        row = json.loads(text)
        row.pop("elapsed")
        return row

    assert stable(out1) == stable(out2)


def test_census_csv_exact_bytes(capsys):
    code, out, _ = run(capsys, "census", "--n-list", "10,100", "--format", "csv")
    assert code == 0
    assert out == (
        "n,m,density,mean_multiplicity\n"
        "10,42,0.4200000000,2.3809523810\n"
        "100,2906,0.2906000000,3.4411562285\n"
    )


def test_json_floats_have_ten_digits(capsys):
    code, out, _ = run(capsys, "census", "--n-list", "10,100", "--format", "json")
    assert code == 0
    for frac in re.findall(r"\d+\.(\d+)", out):
        assert len(frac) == 10


def test_count_forced_segmented(capsys, monkeypatch):
    monkeypatch.setattr(products, "SEGMENT_WINDOW", 1 << 16)
    code, out, _ = run(capsys, "count", "--n", "300", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["m"] == count_distinct_dense(300)


def test_window_length_is_not_an_argument(capsys):
    # a caller that still passes a window length fails instead of having
    # it taken as another argument
    with pytest.raises(TypeError):
        products.count_distinct_segmented(300, 1 << 16)
    with pytest.raises(TypeError):
        products.census([10], None, segment_bits=1 << 16)
    for argv in (("count", "--n", "300"), ("census", "--n-list", "10")):
        code, out, err = run(capsys, *argv, "--segment-bits", "65536")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --segment-bits 65536" in err


def test_parallel_is_not_an_argument():
    # the count picks its fan-out from the table's size, not from the caller
    with pytest.raises(TypeError):
        products.count_distinct_segmented(300, parallel=True)
    with pytest.raises(TypeError):
        products.census([10], None, parallel=True)


def test_parallel_flag_changes_no_output(capsys):
    for argv in (("count", "--n", "2000"), ("census", "--n-list", "10,100")):
        rows = []
        for extra in ((), ("--parallel",)):
            code, out, _ = run(capsys, *argv, *extra, "--format", "json")
            assert code == 0
            rows.append(re.sub(r'"elapsed": [^,}]+', '"elapsed": <t>', out))
        assert rows[0] == rows[1]


def test_cache_flag(tmp_path, capsys):
    cache = tmp_path / "census.csv"
    code, _, _ = run(capsys, "census", "--n-list", "10,50", "--cache", str(cache))
    assert code == 0
    assert cache.read_text() == "n,m\n10,42\n50,800\n"


@pytest.mark.parametrize(
    "body",
    [b"\xff\xfe\x00n\x00,\x00m\x00\n", b"n,m\n10," + b"4" * 200_000 + b"\n"],
    ids=["not-utf8", "field-past-csv-limit"],
)
def test_census_recomputes_cache_that_is_not_text(tmp_path, capsys, body):
    # bytes that do not decode, and a field longer than the csv reader's
    # limit of 131072 characters, are a corrupt cache like any other
    cache = tmp_path / "census.csv"
    cache.write_bytes(body)
    code, out, err = run(
        capsys, "census", "--n-list", "10", "--cache", str(cache), "--format", "json"
    )
    assert code == 0
    (line,) = err.splitlines()
    assert line.startswith(f"warning: census cache {cache} is unreadable (")
    assert line.endswith("); recomputing")
    assert [row["m"] for row in json.loads(out)["rows"]] == [42]
    assert cache.read_text() == "n,m\n10,42\n"


def test_multiplicity_both_routes(capsys):
    code, out, _ = run(
        capsys, "multiplicity", "--n", "6", "--k", "12", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "n": 6,
        "k": 12,
        "direct": 4,
        "formula": 4,
        "agree": True,
    }


def test_multiplicity_domain_error(capsys):
    code, _, err = run(capsys, "multiplicity", "--n", "2", "--k", "12")
    assert code == 2
    assert "k <= n*n" in err


def test_bounds_surfaces_violation(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "12", "--format", "json")
    assert code == 1
    row = json.loads(out)
    assert row["d"] == 6
    assert row["sigma"] == 28
    assert row["violations"][0]["argument"] == 12
    assert row["violations"][0]["quantity"] == "divisor_sum"


def test_bounds_at_a_large_prime(capsys):
    code, out, _ = run(
        capsys, "bounds", "--k", str(2**61 - 1), "--format", "json"
    )
    assert code == 0
    row = json.loads(out)
    assert (row["d"], row["sigma"], row["violations"]) == (2, 2**61, [])


def test_bounds_alternate_constant_clean(capsys):
    code, out, _ = run(
        capsys, "bounds", "--k", "12", "--robin-c", "6483/10000", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_bounds_json_with_an_overflowing_bound(capsys):
    # robin-c = -1e300 sends the sigma bound to -inf, a violation, and the
    # bracket's lower edge to +inf; both are written as strings, so strict
    # JSON parsing accepts the output and float() reads them back
    def reject(constant):
        raise ValueError(f"bare {constant} in the JSON output")

    # numpy's overflow warning is an error here, and nothing reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "bounds", "--k", "1000000000", "--robin-c=-1e300", "--format", "json"
        )
    assert code == 1
    assert err == ""
    row = json.loads(out, parse_constant=reject)
    assert float(row["robin_bound"]) == float(row["sigma_margin"]) == -math.inf
    assert float(row["bracket_lower"]) == math.inf
    sigma = row["violations"][0]
    assert (sigma["quantity"], sigma["violated"], sigma["borderline"]) == (
        "divisor_sum", True, False
    )


@pytest.mark.parametrize("suite", ["sigma-bound", "bracket"])
def test_verify_with_an_overflowing_bound(capsys, suite):
    # robin-c = -1.7e308 overflows the sigma bound to -inf, a violation;
    # numpy's overflow warning is an error here, and stderr stays empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--robin-c=-1.7e308", "--max", "100"
        )
    assert code == 1
    assert err == ""
    assert out


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (("verify", "--suite", "sigma-bound", "--max", "100"), "--robin-c", "-1.7e308"),
        (("verify", "--suite", "bracket", "--max", "100"), "--robin-c", "-1e3"),
        (("bounds", "--k", "12"), "--robin-c", "-1/2"),
        (("series", "--n", "3"), "--s", "-1,1"),
    ],
)
def test_negative_value_after_a_space(capsys, argv, option, value):
    # a value that starts with "-" reads the same after a space as after "="
    by_equals = run(capsys, *argv, f"{option}={value}")
    assert by_equals[0] in (0, 1)
    assert run(capsys, *argv, option, value) == by_equals


@pytest.mark.parametrize(
    "command", [("bounds", "--k", "12"), ("verify", "--suite", "sigma-bound")]
)
@pytest.mark.parametrize("constant", ["1/0", "1e400", "-1e400"])
def test_robin_c_must_be_a_finite_rational(capsys, command, constant):
    # a zero denominator or a rational past the float range is a usage
    # error from the parser, not a traceback
    code, out, err = run(capsys, *command, f"--robin-c={constant}")
    assert (code, out) == (2, "")
    assert err.startswith("usage: ")
    assert f"argument --robin-c: invalid Fraction value: '{constant}'" in err


@pytest.mark.parametrize("where", ["missing/census.csv", "."])
def test_census_cache_path_that_cannot_be_written(
    tmp_path, capsys, monkeypatch, recwarn, where
):
    # a cache in a missing directory, or a cache path that is a directory,
    # is rejected before the cache is read or any n is counted: one error
    # line, exit 2, no warning, and no lock file beside the directory
    def no_count(*args, **kwargs):
        raise AssertionError("a window was counted")

    monkeypatch.setattr(products, "_count_window", no_count)
    base = tmp_path / "base"
    base.mkdir()
    code, out, err = run(
        capsys, "census", "--n-list", "10", "--cache", str(base / where)
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: census cache ")
    assert [str(w.message) for w in recwarn] == []
    assert list(tmp_path.rglob("*")) == [base]


@pytest.mark.parametrize("s", ["inf", "nan,0", "1,-inf"])
def test_series_rejects_a_non_finite_exponent(capsys, s):
    code, out, err = run(capsys, "series", "--s", s, "--n", "50")
    assert (code, out) == (2, "")
    assert err == f"error: --s must be finite, got {s!r}\n"


def test_series_whose_sums_overflow_exits_2(capsys):
    # a finite exponent whose terms overflow a float is a domain error,
    # not a reported violation
    code, out, err = run(capsys, "series", "--s", "-300", "--n", "50")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the sums at s = (-300+0j), n = 50 are not finite")


@pytest.mark.parametrize(
    "s, n", [("0.5,1000000", "50"), ("0.5,5623.413251903491", "2000")]
)
def test_series_far_from_the_real_axis_passes(capsys, s, n):
    # rounding alone moves these routes past 1e-9 of the squared partial
    # sum, and within their rounding bound
    code, out, err = run(capsys, "series", "--s", s, "--n", n, "--format", "text")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith("-> ok")


def test_series_swamped_by_rounding_exits_2(capsys):
    code, out, err = run(capsys, "series", "--s", "0.5,1e16", "--n", "50")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: at s = (0.5+1e+16j), n = 50 rounding can move")


def test_cli_calls_only_public_library_names():
    # cli.py only parses arguments and formats output: it reads no
    # _-prefixed name of the library modules it imports
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("bnd", "products", "series")
        and node.attr.startswith("_")
    ]
    assert private == []


def test_json_rejects_numpy_values():
    # report fields are Python bools and floats; a numpy bool slipping
    # into the output is an error, not a silently different spelling
    with pytest.raises(TypeError):
        cli._to_json({"violated": np.True_})


def test_verify_sigma_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "sigma-bound", "--max", "100", "--format", "json"
    )
    assert code == 1
    row = json.loads(out)
    assert row["violated_count"] == 1
    assert row["violations"][0]["argument"] == 12


def test_verify_n_spells_max(capsys):
    # --n is another spelling of --max for every suite
    _, by_max, _ = run(capsys, "verify", "--suite", "sigma-bound", "--max", "100")
    code, by_n, _ = run(capsys, "verify", "--suite", "sigma-bound", "--n", "100")
    assert code == 1
    assert by_n == by_max
    assert "hi 100" in by_n


def test_verify_identities_reports_failure(capsys, monkeypatch):
    # the 2-table counts 3, which is no product of the 2-table, once: the
    # plain table sum and the s = 0 route move by one, the weighted sum and
    # the s = -1 route by three, and the float routes, with no power at 3,
    # stay
    monkeypatch.setattr(series, "_grown_tables", grown_with_extra_count(3, at_n=2))
    code, out, _ = run(
        capsys, "verify", "--suite", "identities", "--n", "2", "--format", "json"
    )
    assert code == 1
    row = json.loads(out)
    assert [
        (v["argument"], v["quantity"], v["value"], v["bound"], v["margin"])
        for v in row["violations"]
    ] == [
        (2, "table_sum", 5, 4, -1),
        (2, "table_sum_weighted", 12, 9, -3),
        (2, "square_identity_s_0", 1, 0, -1),
        (2, "square_identity_s_-1", 3, 0, -3),
    ]
    assert row["violated_count"] == 4


def test_verify_divisor_bound_clean(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "divisor-bound", "--max", "5000", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["violated_count"] == 0


def test_verify_sweeps_reject_max_above_cap(capsys):
    # rejected before any window is sieved, so this returns at once
    for suite in ("divisor-bound", "sigma-bound", "monotonicity"):
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--max", str(SWEEP_MAX + 1)
        )
        assert code == 2, suite
        assert out == ""
        assert str(SWEEP_MAX) in err


def test_verify_theorem_and_bracket_reject_max_above_cap(capsys, monkeypatch):
    # rejected before M(n) is counted or a window is sieved
    def no_count(*args, **kwargs):
        raise AssertionError("an n was counted")

    monkeypatch.setattr(bounds, "count_distinct_segmented", no_count)
    for suite, top in (("theorem", COUNT_N_MAX), ("bracket", SWEEP_MAX)):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max", str(top + 1))
        assert code == 2, suite
        assert out == ""
        assert str(top) in err


def test_verify_empty_range_exits_2(capsys):
    # one rule for every suite: an empty or negative range is a usage
    # error, reported before any work
    for suite, top in (
        ("identities", 0),
        ("identities", -5),
        ("divisor-bound", 2),
        ("sigma-bound", 2),
        ("theorem", 1),
        ("theorem", -3),
        ("bracket", 2),
        ("monotonicity", 114),
    ):
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--max", str(top), "--format", "json"
        )
        assert (code, out) == (2, ""), (suite, top)
        assert "empty range" in err, (suite, top)


def test_oversized_table_exits_2_before_counting(tmp_path, capsys, monkeypatch):
    # n = 10^7 would need gigabytes for its window list alone: count and
    # census reject it before any window is built, and census checks its
    # whole list before it counts the first n or touches the cache
    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(products, "_window_ranges", no_window)
    code, out, err = run(capsys, "count", "--n", "10000000")
    assert (code, out) == (2, "")
    assert str(COUNT_N_MAX) in err
    absent = tmp_path / "absent.csv"
    code, out, err = run(
        capsys, "census", "--n-list", "10,10000000", "--cache", str(absent)
    )
    assert (code, out) == (2, "")
    assert str(COUNT_N_MAX) in err
    assert list(tmp_path.iterdir()) == []
    cache = tmp_path / "census.csv"
    cache.write_text("n,m\n10,42\n")
    before = cache.stat()
    code, out, _ = run(
        capsys, "census", "--n-list", "10,10000000", "--cache", str(cache)
    )
    assert (code, out) == (2, "")
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert cache.read_text() == "n,m\n10,42\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["census.csv"]


def test_verify_bracket_flags_with_low_constant(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "bracket", "--max", "1000", "--robin-c", "-1",
        "--format", "json",
    )
    assert code == 1
    row = json.loads(out)
    assert [v["argument"] for v in row["violations"]] == [3, 4, 5, 6, 7, 9, 11, 13, 17, 19]
    assert row["violated_count"] == 10


def test_verify_identities(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "identities", "--n", "10", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_verify_identities_rejects_n_above_cap(capsys):
    # both spellings of the table size are rejected before the smaller
    # tables are checked, so this returns at once
    top = series.IDENTITY_SWEEP_N_MAX
    for n in (top + 1, series.IDENTITY_N_MAX + 1):
        for flag in ("--n", "--max"):
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", "--suite", "identities", flag, str(n))
            assert time.perf_counter() - start < 1.0, (n, flag)
            assert code == 2, (n, flag)
            assert out == ""
            assert str(top) in err


def test_verify_monotonicity(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "monotonicity", "--max", "2000", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)
    assert row["increasing_from_114"] is True
    assert row["floor_holds"] is True


def test_verify_monotonicity_at_the_cap(capsys):
    # the monotonicity suite to SWEEP_MAX evaluates the bound near 114
    # and at window ends only, so it runs in well under a second
    code, out, _ = run(
        capsys, "verify", "--suite", "monotonicity", "--max", str(SWEEP_MAX),
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)
    assert row["hi"] == SWEEP_MAX == 1000000000
    assert row["increasing_from_114"] is True
    assert row["floor_holds"] is True
    assert row["violated_count"] == 0


def test_series_exact(capsys):
    code, out, _ = run(capsys, "series", "--s", "0", "--n", "20", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["max_abs_deviation"] == 0.0
    assert row["ok"] is True


def test_series_complex_exponent(capsys):
    code, out, _ = run(capsys, "series", "--s", "2,3", "--n", "50", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_series_bad_exponent(capsys):
    code, _, err = run(capsys, "series", "--s", "2,3,4", "--n", "50")
    assert code == 2


def test_csv_rejected_outside_tables(capsys):
    code, _, err = run(capsys, "bounds", "--k", "10", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_unknown_suite_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "everything")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


# Exact stdout and exit code of commands whose checks live in the library;
# any change to a byte of these is a change of the command's output.
GOLDEN = [
    (
        ("bounds", "--k", "12", "--format", "json"),
        1,
        '{"k": 12, "d": 6, "sigma": 28, "nicolas_bound": 370.5129025252, '
        '"robin_bound": 27.9998200541, "divisor_margin": 364.5129025252, '
        '"sigma_margin": -0.0001799459, "integral": 44, '
        '"bracket_lower": -3.9998200541, "bracket_upper": 4433.1548303022, '
        '"bracket_margin": 47.9998200541, "robin_c": "3241/5000", '
        '"violations": [{"argument": 12, "quantity": "divisor_sum", "value": 28, '
        '"bound": 27.9998200541, "margin": -0.0001799459, "violated": true, '
        '"borderline": false}]}\n',
    ),
    (
        ("bounds", "--k", "12"),
        1,
        "k = 12\n"
        "d(k) = 6  nicolas bound = 370.5129025252  margin = 364.5129025252\n"
        "sigma(k) = 28  robin bound = 27.9998200541  margin = -0.0001799459 "
        "(c = 3241/5000)\n"
        "k*d(k) - sigma(k) = 44 in (-3.9998200541, 4433.1548303022)  "
        "margin = 47.9998200541\n"
        "VIOLATION divisor_sum at n=12: value 28 vs bound 27.9998200541 "
        "(margin -0.0001799459)\n",
    ),
    (
        ("bounds", "--k", "12", "--robin-c", "6483/10000", "--format", "json"),
        0,
        '{"k": 12, "d": 6, "sigma": 28, "nicolas_bound": 370.5129025252, '
        '"robin_bound": 28.0011383948, "divisor_margin": 364.5129025252, '
        '"sigma_margin": 0.0011383948, "integral": 44, '
        '"bracket_lower": -4.0011383948, "bracket_upper": 4433.1548303022, '
        '"bracket_margin": 48.0011383948, "robin_c": "6483/10000", '
        '"violations": []}\n',
    ),
    (
        ("series", "--s", "2,3", "--n", "50", "--format", "json"),
        0,
        '{"s_re": 2.0000000000, "s_im": 3.0000000000, "n": 50, '
        '"grid_re": 0.6155380005, "grid_im": -0.1759515890, '
        '"zeta_squared_re": 0.6155380005, "zeta_squared_im": -0.1759515890, '
        '"multiplicity_re": 0.6155380005, "multiplicity_im": -0.1759515890, '
        '"max_abs_deviation": 0.0000000000, "tolerance": 0.0000000006, '
        '"ok": true}\n',
    ),
    (
        ("series", "--s", "0", "--n", "20"),
        0,
        "s = 0j, n = 20\n"
        "grid sum            = (400+0j)\n"
        "zeta partial squared = (400+0j)\n"
        "multiplicity sum    = (400+0j)\n"
        "max deviation 0.000e+00 (tolerance 0.000e+00) -> ok\n",
    ),
    (
        ("verify", "--suite", "identities", "--n", "3", "--format", "json"),
        0,
        '{"suite": "identities", "max_n": 3, "violations": [], '
        '"violated_count": 0, "borderline_count": 0}\n',
    ),
    (
        ("verify", "--suite", "identities", "--n", "3"),
        0,
        "suite identities, max_n 3\n0 violation(s), 0 borderline\n",
    ),
    (
        ("verify", "--suite", "monotonicity", "--max", "1000"),
        0,
        "suite monotonicity, lo 3, hi 1000\n"
        "nicolas bound strictly increasing on [114, 1000]: yes\n"
        "nicolas bound > 114.1 on [3, 1000]: yes\n",
    ),
    (
        ("verify", "--suite", "monotonicity", "--max", "1000", "--format", "json"),
        0,
        '{"suite": "monotonicity", "lo": 3, "hi": 1000, "increasing_from_114": true, '
        '"floor": 114.1000000000, "floor_holds": true, "violated_count": 0}\n',
    ),
    (
        ("verify", "--suite", "sigma-bound", "--max", "100"),
        1,
        "suite sigma-bound, lo 3, hi 100, robin_c 3241/5000\n"
        "VIOLATION divisor_sum at n=12: value 28 vs bound 27.9998200541 "
        "(margin -0.0001799459)\n"
        "1 violation(s), 0 borderline\n",
    ),
    (
        # the bracket's bound is a pair, written as a JSON list
        ("verify", "--suite", "bracket", "--max", "300", "--robin-c=-1", "--format", "json"),
        1,
        '{"suite": "bracket", "lo": 3, "hi": 300, "violations": ['
        '{"argument": 3, "quantity": "integral", "value": 2, "bound": [37.3961454604, '
        "22051248323873698626904676018775316937067579837142095164912761052332233326592"
        '.0000000000], "margin": -35.3961454604, "violated": true, "borderline": false}, '
        '{"argument": 4, "quantity": "integral", "value": 5, "bound": [17.9190757395, '
        '2808085357.0766520500], "margin": -12.9190757395, "violated": true, '
        '"borderline": false}, '
        '{"argument": 5, "quantity": "integral", "value": 4, "bound": [16.2688119804, '
        '718904.2412205555], "margin": -12.2688119804, "violated": true, '
        '"borderline": false}, '
        '{"argument": 6, "quantity": "integral", "value": 12, "bound": [16.0557916047, '
        '59093.5547118443], "margin": -4.0557916047, "violated": true, '
        '"borderline": false}, '
        '{"argument": 7, "quantity": "integral", "value": 6, "bound": [16.2147852240, '
        '19157.1212208563], "margin": -10.2147852240, "violated": true, '
        '"borderline": false}, '
        '{"argument": 9, "quantity": "integral", "value": 14, "bound": [16.8145374789, '
        '7232.0637004610], "margin": -2.8145374789, "violated": true, '
        '"borderline": false}, '
        '{"argument": 11, "quantity": "integral", "value": 10, "bound": [17.4424855771, '
        '4917.2115720210], "margin": -7.4424855771, "violated": true, '
        '"borderline": false}, '
        '{"argument": 13, "quantity": "integral", "value": 12, "bound": [17.9917279323, '
        '4131.6707026889], "margin": -5.9917279323, "violated": true, '
        '"borderline": false}, '
        '{"argument": 17, "quantity": "integral", "value": 16, "bound": [18.7918995150, '
        '3706.8019575010], "margin": -2.7918995150, "violated": true, '
        '"borderline": false}, '
        '{"argument": 19, "quantity": "integral", "value": 18, "bound": [19.0490823059, '
        '3696.8999626655], "margin": -1.0490823059, "violated": true, '
        '"borderline": false}], "violated_count": 10, "borderline_count": 0}\n',
    ),
    (
        ("multiplicity", "--n", "6", "--k", "12"),
        0,
        "multiplicity of 12 in the 6-table: direct 4, formula 4, agree\n",
    ),
    # multiplicity always computes both routes: there is no --method to
    # pick one, so the flag is a usage error
    (
        ("multiplicity", "--n", "6", "--k", "12", "--method", "direct", "--format", "json"),
        2,
        "",
    ),
    (
        ("count", "--n", "50", "--format", "csv"),
        0,
        "n,m,density,mean_multiplicity\n50,800,0.3200000000,3.1250000000\n",
    ),
]


@pytest.mark.parametrize(
    "argv, exit_code, stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_golden_bytes(capsys, argv, exit_code, stdout):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (exit_code, stdout)


# Exact stdout, stderr and exit code of help and usage errors at 80
# columns, as Python 3.11's argparse formats them.
USAGE_GOLDEN = [
    (
        ("--help",),
        0,
        (
            "usage: mtable [-h] [--format {text,json,csv}]\n"
            "              {count,multiplicity,census,verify,bounds,series} ...\n"
            "\n"
            "Multiplication-table censuses, multiplicities, and bound checks.\n"
            "\n"
            "positional arguments:\n"
            "  {count,multiplicity,census,verify,bounds,series}\n"
            "    count               count distinct products of one table\n"
            "    multiplicity        multiplicity of one product\n"
            "    census              distinct-product census over several n\n"
            "    verify              run one verification suite\n"
            "    bounds              bounds and bracket at one argument\n"
            "    series              square identity at one (s, n)\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {text,json,csv}\n"
            "                        output format (csv only for count and census)\n"
        ),
        "",
    ),
    (
        ("count", "--help"),
        0,
        (
            "usage: mtable count [-h] [--format {text,json,csv}] --n N [--parallel]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {text,json,csv}\n"
            "                        output format (csv only for count and census)\n"
            "  --n N\n"
            "  --parallel            has no effect\n"
        ),
        "",
    ),
    (
        ("multiplicity", "--help"),
        0,
        (
            "usage: mtable multiplicity [-h] [--format {text,json,csv}] --n N --k K\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {text,json,csv}\n"
            "                        output format (csv only for count and census)\n"
            "  --n N\n"
            "  --k K\n"
        ),
        "",
    ),
    (
        ("census", "--help"),
        0,
        (
            "usage: mtable census [-h] [--format {text,json,csv}] --n-list N_LIST\n"
            "                     [--cache CACHE] [--parallel]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {text,json,csv}\n"
            "                        output format (csv only for count and census)\n"
            "  --n-list N_LIST       comma-separated n values\n"
            "  --cache CACHE         CSV cache path (columns n,m)\n"
            "  --parallel            has no effect\n"
        ),
        "",
    ),
    (
        ("verify", "--help"),
        0,
        (
            "usage: mtable verify [-h] [--format {text,json,csv}] --suite\n"
            "                     {identities,divisor-bound,sigma-bound,"
            "theorem,bracket,monotonicity}\n"
            "                     [--max MAX] [--robin-c ROBIN_C]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {text,json,csv}\n"
            "                        output format (csv only for count and census)\n"
            "  --suite {identities,divisor-bound,sigma-bound,theorem,bracket,monotonicity}\n"
            "  --max MAX, --n MAX    upper end of the sweep (identities: highest table\n"
            "                        size)\n"
            "  --robin-c ROBIN_C\n"
        ),
        "",
    ),
    (
        ("bounds", "--help"),
        0,
        (
            "usage: mtable bounds [-h] [--format {text,json,csv}] --k K [--robin-c ROBIN_C]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {text,json,csv}\n"
            "                        output format (csv only for count and census)\n"
            "  --k K\n"
            "  --robin-c ROBIN_C\n"
        ),
        "",
    ),
    (
        ("series", "--help"),
        0,
        (
            "usage: mtable series [-h] [--format {text,json,csv}] --s S --n N\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {text,json,csv}\n"
            "                        output format (csv only for count and census)\n"
            "  --s S                 exponent, RE or RE,IM\n"
            "  --n N\n"
        ),
        "",
    ),
    (
        (),
        2,
        "",
        (
            "usage: mtable [-h] [--format {text,json,csv}]\n"
            "              {count,multiplicity,census,verify,bounds,series} ...\n"
            "mtable: error: the following arguments are required: command\n"
        ),
    ),
    (
        ("frobnicate",),
        2,
        "",
        (
            "usage: mtable [-h] [--format {text,json,csv}]\n"
            "              {count,multiplicity,census,verify,bounds,series} ...\n"
            "mtable: error: argument command: invalid choice: 'frobnicate' "
            "(choose from 'count', 'multiplicity', 'census', 'verify', 'bounds', "
            "'series')\n"
        ),
    ),
    (
        ("--format", "xml", "count", "--n", "5"),
        2,
        "",
        (
            "usage: mtable [-h] [--format {text,json,csv}]\n"
            "              {count,multiplicity,census,verify,bounds,series} ...\n"
            "mtable: error: argument --format: invalid choice: 'xml' "
            "(choose from 'text', 'json', 'csv')\n"
        ),
    ),
    (
        ("count",),
        2,
        "",
        (
            "usage: mtable count [-h] [--format {text,json,csv}] --n N [--parallel]\n"
            "mtable count: error: the following arguments are required: --n\n"
        ),
    ),
    (
        ("count", "--n", "5", "--bogus"),
        2,
        "",
        (
            "usage: mtable count [-h] [--format {text,json,csv}] --n N [--parallel]\n"
            "mtable count: error: unrecognized arguments: --bogus\n"
        ),
    ),
    (
        ("--bogus", "count", "--n", "5"),
        2,
        "",
        (
            "usage: mtable [-h] [--format {text,json,csv}]\n"
            "              {count,multiplicity,census,verify,bounds,series} ...\n"
            "mtable: error: unrecognized arguments: --bogus\n"
        ),
    ),
]


@pytest.mark.parametrize(
    "argv, exit_code, stdout, stderr",
    USAGE_GOLDEN,
    ids=[" ".join(g[0]) or "no arguments" for g in USAGE_GOLDEN],
)
def test_usage_golden_bytes(capsys, monkeypatch, argv, exit_code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (exit_code, stdout, stderr)


_NO_ARGPARSE = """
import sys
import mtable.cli
assert mtable.cli.run(["verify", "--suite", "divisor-bound"]) == 0
print(sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules))
"""


def test_accepted_command_imports_no_argparse():
    # a command line the option table takes whole runs without argparse,
    # whose import and first gettext lookup (which imports locale) cost
    # about 3 ms of every command
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_ARGPARSE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _assert_parsers_agree(argv):
    # _parse either leaves argv to argparse or returns what argparse returns
    ours = cli._parse(list(argv))
    if ours is None:
        return
    try:
        theirs = cli._build_parser().parse_args(list(argv))
    except SystemExit as exc:
        pytest.fail(f"_parse accepts {argv}, argparse exits {exc.code}")
    ours, theirs = vars(ours), vars(theirs)
    assert ours.pop("handler") is theirs.pop("handler")
    assert ours == theirs, argv


# argv shapes on the edge of what _parse takes; the corpus holds more
EDGE_ARGV = [
    ("verify", "--suite", "theorem"),
    ("verify", "--suite", "theorem", "--n", "5", "--max", "7"),
    ("verify", "--suite", "theorem", "--max", "7", "--n", "5"),
    ("verify", "--suite", "bracket", "--robin-c", "-1/2", "--format", "csv"),
    ("bounds", "--k", "12", "--robin-c=-1.7e308", "--robin-c", "1"),
    ("bounds", "--k", "12", "--robin-c", "1/0"),
    ("bounds", "--k=-5"),
    ("count", "--n", "-.5"),
    ("count", "--n", "-1"),
    ("count", "--parallel", "--n", "5", "--parallel"),
    ("census", "--n-list", "", "--cache", "x=y"),
    ("census", "--n-list=10,20", "--cache="),
    ("series", "--s", "", "--n", "3"),
    ("series", "--s", "-x y", "--n", "3"),
    ("series", "--s=-x", "--n", "3"),
    ("multiplicity", "--n", "6", "--k", "12", "--format", "text", "--format", "json"),
    ("multiplicity", "--n", "6", "--k"),
    ("count", "--format", "xml", "--n", "5"),
]


@pytest.mark.parametrize(
    "argv", cli_parity.commands() + EDGE_ARGV, ids=lambda argv: " ".join(argv) or "()"
)
def test_table_parser_agrees_with_argparse(argv):
    _assert_parsers_agree(argv)


def _benchmark_commands(monkeypatch) -> list[tuple[str, ...]]:
    """The argv of every invocation of perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [inv.argv for inv in workloads.INVOCATIONS.values()]


def test_table_parser_takes_benchmark_and_readme_commands(monkeypatch):
    argvs = _benchmark_commands(monkeypatch) + _readme_commands()
    assert len(argvs) > 30
    for argv in argvs:
        assert cli._parse(list(argv)) is not None, argv
        _assert_parsers_agree(argv)
    args = cli._parse(["bounds", "--k", "12"])
    assert args.robin_c is bounds.ROBIN_C and args.format == "text"
    args = cli._parse(["census", "--n-list", "10"])
    assert (args.cache, args.parallel) == (None, False)
    assert cli._parse(["verify", "--suite", "theorem", "--n", "9"]).max == 9


_VALUES = st.one_of(
    st.integers(-10, 10**6).map(str),
    st.sampled_from(["-1", "-.5", "-1/2", "-", "", "--", "-x y", "xml", "2,3", "1e3"]),
)
_STRAYS = st.sampled_from(["-h", "--form", "--rob", "--ma", "--k", "--parallel", "--"])


@st.composite
def _command_lines(draw):
    """A command and a few of its options, each with a value that mostly
    fits it, after a space or "="; in a quarter of them one stray token."""
    command = draw(st.sampled_from([*cli._COMMANDS, "--format", "frobnicate"]))
    _, _, options = cli._COMMANDS.get(command, (None, None, ()))
    argv = [command]
    for strings, kw in draw(st.lists(st.sampled_from((cli._FORMAT, *options)), max_size=5)):
        string = draw(st.sampled_from(strings))
        if "action" in kw:
            fits = st.just(None)
        elif "choices" in kw:
            fits = st.sampled_from(kw["choices"])
        else:
            fits = st.integers(-10, 10**6).map(str)
        value = draw(_VALUES if draw(st.sampled_from([False] * 7 + [True])) else fits)
        if value is None:
            argv.append(string)
        elif draw(st.booleans()):
            argv.append(f"{string}={value}")
        else:
            argv += [string, value]
    if draw(st.sampled_from([False] * 3 + [True])):
        argv.insert(draw(st.integers(1, len(argv))), draw(_VALUES | _STRAYS))
    return argv


@settings(max_examples=300)
@given(_command_lines())
def test_table_parser_agrees_with_argparse_on_random_lines(argv):
    _assert_parsers_agree(argv)


def _readme_commands() -> list[list[str]]:
    """The argv of every mtable line in the README's Command line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("mtable ")]


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    # every command the README advertises parses and runs; a removed flag
    # would exit 2 with an error line
    monkeypatch.chdir(tmp_path)
    argvs = _readme_commands()
    assert len(argvs) >= 10
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1) and "error:" not in err, (argv, code, err)
