"""Command-line behavior: formats, exit codes, flag placement."""

import json
import re
import time

import pytest
from oracles import count_distinct_dense

from mtable import cli, series
from mtable.bounds import SWEEP_MAX
from mtable.products import PREFIX_N_MAX


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


def test_count_forced_segmented(capsys):
    code, out, _ = run(
        capsys, "count", "--n", "300", "--segment-bits", "65536", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)
    assert row["m"] == count_distinct_dense(300)


def test_segment_bits_floor(capsys):
    code, _, err = run(capsys, "count", "--n", "100", "--segment-bits", "1024")
    assert code == 2
    assert "65536" in err


def test_cache_flag(tmp_path, capsys):
    cache = tmp_path / "census.csv"
    code, _, _ = run(capsys, "census", "--n-list", "10,50", "--cache", str(cache))
    assert code == 0
    assert cache.read_text() == "n,m\n10,42\n50,800\n"


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
    code, _, err = run(
        capsys, "multiplicity", "--n", "2", "--k", "12", "--method", "formula"
    )
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


def test_bounds_alternate_constant_clean(capsys):
    code, out, _ = run(
        capsys, "bounds", "--k", "12", "--robin-c", "6483/10000", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_verify_sigma_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "sigma-bound", "--max", "100", "--format", "json"
    )
    assert code == 1
    row = json.loads(out)
    assert row["violated_count"] == 1
    assert row["violations"][0]["argument"] == 12


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


def test_verify_theorem_and_bracket_reject_max_above_cap(capsys):
    # rejected before M(n) is counted or a window is sieved
    for suite, top in (("theorem", PREFIX_N_MAX), ("bracket", SWEEP_MAX)):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max", str(top + 1))
        assert code == 2, suite
        assert out == ""
        assert str(top) in err


def test_verify_theorem_and_bracket_empty_range_clean(capsys):
    for suite in ("theorem", "bracket"):
        code, out, _ = run(
            capsys, "verify", "--suite", suite, "--max", "1", "--format", "json"
        )
        assert code == 0, suite
        assert json.loads(out)["violations"] == []


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
    top = series.IDENTITY_N_MAX
    for flag in ("--n", "--max"):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", "identities", flag, str(top + 1))
        assert time.perf_counter() - start < 1.0, flag
        assert code == 2, flag
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
