"""Windowed bound sweeps against the whole-range oracle.

The oracle is the single-pass form of each sweep: sieve d and sigma for
the whole range with one array per quantity, evaluate the bound over the
whole range at once, and classify it with one _upper_sweep call.  The
windowed sweeps must agree with it exactly, floats compared with ==.

The bracket sweep's oracle is the scalar check at every argument: the
bracket margin from math's log and exp, k*d(k) - sigma(k) from the
whole-range sieve, and verify_integral_bracket for every argument that
margin flags.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from mtable import bounds

# at least three windows, ending off a window edge
LO = 5
HI = 3 * bounds.SWEEP_WINDOW + 12345


def whole_sieve(limit):
    d = np.zeros(limit + 1, dtype=np.int64)
    sigma = np.zeros(limit + 1, dtype=np.int64)
    for i in range(1, math.isqrt(limit) + 1):
        d[i * i] += 1
        sigma[i * i] += i
        start = i * (i + 1)
        if start <= limit:
            d[start::i] += 2
            sigma[start::i] += i + np.arange(i + 1, limit // i + 1, dtype=np.int64)
    return d, sigma


def whole_divisor_sweep(lo, hi, c):
    d, _ = whole_sieve(hi)
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    constants = dict(bounds._default_constants(), nicolas_c=Fraction(c))
    return bounds._upper_sweep(
        lo, d[lo:].astype(np.float64), bounds._nicolas_values(ns, float(c)),
        "divisor_count", constants,
    )


def whole_sigma_sweep(lo, hi, c):
    _, sigma = whole_sieve(hi)
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    constants = dict(bounds._default_constants(), robin_c=Fraction(c))
    return bounds._upper_sweep(
        lo, sigma[lo:].astype(np.float64), bounds._robin_values(ns, float(c)),
        "divisor_sum", constants,
    )


def whole_nicolas_values(lo, hi):
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    return bounds._nicolas_values(ns, float(bounds.NICOLAS_C))


def scalar_bracket_sweep(lo, hi, robin_c, nicolas_c):
    # the margin and flag test of verify_integral_bracket, operation for
    # operation; the report of every flagged argument is its own
    d, sigma = whole_sieve(hi)
    middles = (np.arange(hi + 1) * d - sigma).tolist()
    rc, nc = float(robin_c), float(nicolas_c)
    reports = []
    for k in range(lo, hi + 1):
        middle = middles[k]
        margin = min(
            middle - (2.0 * k - bounds.robin_bound(k, rc)),
            k * bounds.nicolas_bound(k, nc) - k - 1.0 - middle,
        )
        if margin <= bounds._slack(max(abs(middle), 1.0)):
            reports.append(bounds.verify_integral_bracket(k, robin_c, nicolas_c))
    return reports


def whole_monotonicity(lo, hi):
    return bool(np.all(np.diff(whole_nicolas_values(lo, hi)) > 0.0))


def whole_floor(lo, hi, floor=114.1):
    return bool(np.all(whole_nicolas_values(lo, hi) > floor))


@pytest.mark.parametrize("c", [bounds.NICOLAS_C, Fraction(1)])
def test_divisor_sweep_matches_whole_range(c):
    # c = 1 lowers the bound enough to flag arguments in every window
    windowed = bounds.verify_divisor_bound(LO, HI, c)
    assert windowed == whole_divisor_sweep(LO, HI, c)
    if c == 1:
        assert {(r.argument - LO) // bounds.SWEEP_WINDOW for r in windowed} == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "c", [bounds.ROBIN_C, bounds.ROBIN_C_ALTERNATE, Fraction(-1)]
)
def test_sigma_sweep_matches_whole_range(c):
    windowed = bounds.verify_sigma_bound(LO, HI, c)
    assert windowed == whole_sigma_sweep(LO, HI, c)
    if c == bounds.ROBIN_C:
        assert [r.argument for r in windowed] == [12]


def test_monotonicity_and_floor_match_whole_range():
    assert bounds.nicolas_monotonicity_check(114, HI) is whole_monotonicity(114, HI)
    assert bounds.nicolas_floor_check(3, HI) is whole_floor(3, HI)
    assert bounds.nicolas_floor_check(3, HI, 115.0) is whole_floor(3, HI, 115.0)


def test_shape_check_matches_whole_range():
    assert bounds.nicolas_shape_check(HI) == (
        whole_monotonicity(114, HI), whole_floor(3, HI)
    )
    assert bounds.nicolas_shape_check(HI, 115.0) == (
        whole_monotonicity(114, HI), whole_floor(3, HI, 115.0)
    )


@pytest.mark.parametrize(
    "dip", [113, 114, 3 + bounds.SWEEP_WINDOW - 1, 3 + bounds.SWEEP_WINDOW]
)
def test_shape_check_sees_a_dip(monkeypatch, dip):
    # the shape check's windows start at 3: a dip before 114 or at it
    # leaves the bound increasing from 114 on, one at the last argument
    # of the first window or the first of the second does not
    real = bounds._nicolas_values

    def dipped(ns, c):
        values = real(ns, c)
        values[ns == dip] = 0.0
        return values

    monkeypatch.setattr(bounds, "_nicolas_values", dipped)
    assert bounds.nicolas_shape_check(HI) == (dip <= 114, False)
    assert bounds.nicolas_shape_check(HI) == (
        whole_monotonicity(114, HI), whole_floor(3, HI)
    )


def test_scalar_bracket_oracle_is_the_scalar_loop():
    # ties the oracle's replicated flag test to the scalar check itself
    lo, hi, robin_c, nicolas_c = 3, 20000, Fraction(-1), Fraction(1)
    loop = [
        r
        for r in (
            bounds.verify_integral_bracket(k, robin_c, nicolas_c)
            for k in range(lo, hi + 1)
        )
        if r.violated or r.borderline
    ]
    assert loop and scalar_bracket_sweep(lo, hi, robin_c, nicolas_c) == loop


@pytest.mark.parametrize(
    "robin_c, nicolas_c",
    [(bounds.ROBIN_C, bounds.NICOLAS_C), (Fraction(-1), Fraction(1))],
)
def test_bracket_sweep_matches_scalar_check(robin_c, nicolas_c):
    # robin_c = -1 flags small k on the lower edge, nicolas_c = 1 flags
    # arguments on the upper edge in every window
    lo = 3
    windowed = bounds.verify_bracket_sweep(lo, HI, robin_c, nicolas_c)
    assert windowed == scalar_bracket_sweep(lo, HI, robin_c, nicolas_c)
    if nicolas_c == 1:
        assert {(r.argument - lo) // bounds.SWEEP_WINDOW for r in windowed} == {0, 1, 2, 3}
    else:
        assert windowed == []


def test_bracket_sweep_rejects_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        bounds.verify_bracket_sweep(3, 2)
    with pytest.raises(ValueError):
        bounds.verify_bracket_sweep(2, 10)


@pytest.mark.parametrize("offset", [0, bounds.SWEEP_WINDOW - 1, bounds.SWEEP_WINDOW])
def test_dip_is_seen_on_either_side_of_a_window_edge(monkeypatch, offset):
    # a bound that drops to 0 at one argument: the last argument of the
    # first window, the first argument of the second (seen only by the
    # comparison across windows), or the sweep's first argument
    lo = 114
    dip = lo + offset
    real = bounds._nicolas_values

    def dipped(ns, c):
        values = real(ns, c)
        values[ns == dip] = 0.0
        return values

    monkeypatch.setattr(bounds, "_nicolas_values", dipped)
    if offset:
        assert whole_monotonicity(lo, HI) is False
        assert bounds.nicolas_monotonicity_check(lo, HI) is False
    assert whole_floor(lo, HI) is False
    assert bounds.nicolas_floor_check(lo, HI) is False


def test_sweeps_reject_range_above_cap():
    top = bounds.SWEEP_MAX + 1
    for sweep in (
        bounds.verify_divisor_bound,
        bounds.verify_sigma_bound,
        bounds.nicolas_monotonicity_check,
        bounds.nicolas_floor_check,
        bounds.verify_bracket_sweep,
    ):
        with pytest.raises(ValueError):
            sweep(114, top)


def test_shape_check_rejects_bad_range():
    for hi in (114, bounds.SWEEP_MAX + 1):
        with pytest.raises(ValueError):
            bounds.nicolas_shape_check(hi)
