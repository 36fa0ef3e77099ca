"""Partial zeta sums and the three-route square identity."""

import math

import numpy as np
import pytest
from oracles import per_call_identities_sweep, zeta_square_truncation_partial

from mtable import series


def test_zeta_partial_exact_paths():
    assert series.zeta_partial(0, 7) == 7
    assert series.zeta_partial(-1, 7) == 28
    assert series.zeta_partial(0, 500) == 500
    assert series.zeta_partial(-1, 500) == 500 * 501 // 2


def test_zeta_partial_harmonic():
    h4 = series.zeta_partial(1, 4)
    assert h4.imag == 0.0
    assert h4.real == pytest.approx(25 / 12, rel=1e-15)


def test_zeta_partial_tail_behavior():
    # zeta(2) minus the partial to N is 1/N - 1/(2 N^2) + O(N^-3)
    p = series.zeta_partial(2, 10**4).real
    assert abs(math.pi**2 / 6 - p - 1e-4 + 0.5e-8) < 1e-9


def test_zeta_partial_rejects_bad_n():
    with pytest.raises(ValueError):
        series.zeta_partial(2, 0)


def test_identity_exact_exponents():
    for n in (1, 2, 10, 37):
        for s in (0, -1):
            cmp = series.verify_square_identity(s, n)
            assert cmp.max_abs_deviation == 0.0, (s, n)
            assert cmp.grid_sum == cmp.zeta_partial_squared == cmp.multiplicity_sum
    assert series.verify_square_identity(0, 10).grid_sum == 100
    assert series.verify_square_identity(-1, 10).grid_sum == 55**2


def test_identity_float_exponents():
    for s in (2, 3, 2 + 3j):
        cmp = series.verify_square_identity(s, 100)
        assert cmp.max_abs_deviation <= 1e-12 * abs(cmp.zeta_partial_squared), s


def test_identity_tolerance_and_verdict(monkeypatch):
    for s in (0, -1):
        cmp = series.verify_square_identity(s, 30)
        assert (cmp.tolerance, cmp.ok) == (0.0, True)
    for s in (2, 2 + 3j):
        cmp = series.verify_square_identity(s, 30)
        assert cmp.tolerance == 1e-9 * abs(cmp.zeta_partial_squared) > 0
        assert cmp.ok is True
    # a grid route off by 1e-6 fails the 1e-9 relative tolerance
    grid_sum = series._grid_sum
    monkeypatch.setattr(series, "_grid_sum", lambda s, n: grid_sum(s, n) + 1e-6)
    cmp = series.verify_square_identity(2, 30)
    assert cmp.max_abs_deviation > cmp.tolerance
    assert cmp.ok is False
    # and the identities sweep reports it at every float exponent
    reports = series.verify_identities_sweep(1)
    assert [r.quantity for r in reports] == [
        "square_identity_s_2",
        "square_identity_s_3",
        "square_identity_s_(2+3j)",
    ]
    for r in reports:
        assert r.violated and r.margin == r.bound - r.value < 0


def test_identities_sweep_reports_table_sum_failure(monkeypatch):
    # the plain table sum comes back one short at every n
    checks = series.table_sum_checks

    def short_by_one(n):
        weighted, plain = checks(n)
        return weighted, plain - 1

    monkeypatch.setattr(series, "table_sum_checks", short_by_one)
    reports = series.verify_identities_sweep(2)
    assert [(r.argument, r.quantity) for r in reports] == [
        (1, "table_sum"),
        (2, "table_sum"),
    ]
    r = reports[1]
    assert (r.value, r.bound, r.margin) == (3.0, 4.0, 1.0)
    assert r.violated and not r.borderline


def _bits(cmp):
    # every field of a comparison, floats and complex parts as hex
    def key(v):
        if isinstance(v, complex):
            return (v.real.hex(), v.imag.hex())
        return v.hex() if isinstance(v, float) else v

    return tuple(key(getattr(cmp, f)) for f in cmp.__dataclass_fields__)


def test_identities_sweep_matches_per_call_oracle(monkeypatch):
    # the sweep grows one table through every n and shares it across the
    # exponents; each comparison must be verify_square_identity's own,
    # bit for bit, and the reports those built from them.  The grid route
    # is pushed off at a few (s, n) and the table sum at one n, so the
    # reports are not all empty.
    grid_sum, checks = series._grid_sum, series.table_sum_checks

    def off_grid(s, n):
        return grid_sum(s, n) + (1e-6 if n in (7, 31) else 0.0)

    def off_sums(n):
        weighted, plain = checks(n)
        return (weighted + 1, plain) if n == 12 else (weighted, plain)

    monkeypatch.setattr(series, "_grid_sum", off_grid)
    monkeypatch.setattr(series, "table_sum_checks", off_sums)
    reports, comparisons = per_call_identities_sweep(40)
    shared = []
    square_identity = series._square_identity

    def recording(s, n, ks, weights):
        shared.append(square_identity(s, n, ks, weights))
        return shared[-1]

    monkeypatch.setattr(series, "_square_identity", recording)
    assert series.verify_identities_sweep(40) == reports
    assert [_bits(c) for c in shared] == [_bits(c) for c in comparisons]
    assert len(shared) == 5 * 40
    assert [(r.argument, r.quantity) for r in reports] == [
        (7, "square_identity_s_2"),
        (7, "square_identity_s_3"),
        (7, "square_identity_s_(2+3j)"),
        (12, "table_sum_weighted"),
        (31, "square_identity_s_2"),
        (31, "square_identity_s_3"),
        (31, "square_identity_s_(2+3j)"),
    ]


def test_exact_grid_sum_spans_row_blocks():
    # n on and around the row block's length, and several blocks
    for n in (1, 127, 128, 129, 300):
        assert series._grid_sum_exact(0, n) == n * n
        assert series._grid_sum_exact(-1, n) == (n * (n + 1) // 2) ** 2


def test_identities_sweep_rejects_empty_range():
    for n_max in (0, -5):
        with pytest.raises(ValueError, match="empty range"):
            series.verify_identities_sweep(n_max)


def test_identity_rejects_oversize_table():
    with pytest.raises(ValueError):
        series.verify_square_identity(2, series.IDENTITY_N_MAX + 1)
    with pytest.raises(ValueError):
        series.verify_square_identity(2, 0)


@pytest.mark.parametrize("s", [-300, -300 + 1j])
def test_identity_rejects_sums_that_are_not_finite(s):
    # terms that overflow a float make a domain error, not a failed
    # identity
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="are not finite"):
            series.verify_square_identity(s, 50)


def test_conjugate_symmetry_spot():
    a = series.zeta_partial(2 + 3j, 1000)
    b = series.zeta_partial(2 - 3j, 1000)
    assert abs(b - a.conjugate()) <= 1e-15 * abs(a)


def test_truncation_gap_decreases():
    gaps = [
        series.zeta_square_truncation(2, k_max)["gap"]
        for k_max in (100, 1000, 10**4)
    ]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_truncation_at_even_reference():
    out = series.zeta_square_truncation(2, 10**4)
    assert out["reference"] == (math.pi**2 / 6) ** 2
    assert out["gap"] == pytest.approx(0.0011362769787996996, rel=1e-10)


@pytest.mark.parametrize("k_max", [10, 12345, 2**20, 2**20 + 1, 3 * 2**20 + 7, 10**7])
def test_truncation_blocks_match_whole_array_sum(k_max):
    # block by block gives math.fsum the same block partials as one
    # pass over whole-length arrays, so the sums are bit-identical
    for s in (1.5, 2, 3.7):
        got = series.zeta_square_truncation(s, k_max)["partial"]
        assert got == zeta_square_truncation_partial(s, k_max), (s, k_max)


def test_truncation_validation():
    with pytest.raises(ValueError):
        series.zeta_square_truncation(1.0, 100)
    with pytest.raises(ValueError):
        series.zeta_square_truncation(2, 9)


def test_zeta_reference_closed_forms():
    assert series._zeta_reference(2.0) == math.pi**2 / 6
    assert series._zeta_reference(4.0) == math.pi**4 / 90
    assert series._zeta_reference(6.0) == math.pi**6 / 945


def test_zeta_reference_summed_path():
    # no closed form at s = 3; the long partial sum plus tail must land
    # on the known value
    assert series._zeta_reference(3.0) == pytest.approx(
        1.2020569031595943, rel=1e-12
    )


def test_truncation_rejects_k_max_above_cap():
    with pytest.raises(ValueError):
        series.zeta_square_truncation(2, series.TRUNCATION_K_MAX + 1)
