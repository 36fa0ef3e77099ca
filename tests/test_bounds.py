"""Explicit divisor-function bounds, sweep verifiers, and brackets."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import count_distinct_dense, grown_with_extra_count

from mtable import bounds, series
from mtable.divisors import divisor_count, divisor_sum, incomplete_divisor_integral

# frozen binary64 values of the one evaluation, numpy's log and exp
NICOLAS_KNOWN = {
    3: 7.3504161079579e75,
    4: 702021340.519163,
    12: 370.5129025251821,
    100: 114.26219759261568,
    114: 114.10968541181916,
    1000: 142.30629610276307,
}
ROBIN_KNOWN = {3: 21.179231614213666, 12: 27.9998200540828}
ROBIN_12_ALTERNATE = 28.00113839481559
SIGMA_12_MARGIN = -0.00017994591719983077


def test_nicolas_known_values():
    for n, expect in NICOLAS_KNOWN.items():
        assert bounds.nicolas_bound(n) == expect, n


def test_nicolas_against_power_form():
    # same formula written as n**e instead of exp(e ln n); the two may
    # differ by ulps but never more
    for n in (5, 12, 100, 10**6):
        loglog = math.log(math.log(n))
        exponent = (math.log(2) / loglog) * (1 + float(bounds.NICOLAS_C) / loglog)
        assert bounds.nicolas_bound(n) == pytest.approx(n**exponent, rel=1e-13)


def test_robin_known_values():
    for n, expect in ROBIN_KNOWN.items():
        assert bounds.robin_bound(n) == expect, n
    assert bounds.robin_bound(12, bounds.ROBIN_C_ALTERNATE) == ROBIN_12_ALTERNATE


def bound_sample(seed=20261018):
    # every n in [3, 3000], 2000 random n below 1e9, 1000 random n in
    # [1e9, 2**63) and 2**63 - 1
    rng = random.Random(seed)
    return (
        list(range(3, 3001))
        + [rng.randrange(3001, 10**9) for _ in range(2000)]
        + [rng.randrange(10**9, 2**63) for _ in range(1000)]
        + [2**63 - 1]
    )


def test_scalar_bounds_are_the_array_evaluation():
    # nicolas_bound and robin_bound are the sweeps' kernels at one
    # argument: equal bit for bit to the element of an array evaluation,
    # whether it falls in a SIMD body or tail position
    rng = random.Random(7)
    ns = list(range(3, 20001)) + [rng.randrange(20001, 10**9) for _ in range(5003)]
    arguments = np.array(ns, dtype=np.float64)
    for scalar, values, c in (
        (bounds.nicolas_bound, bounds._nicolas_values, bounds.NICOLAS_C),
        (bounds.robin_bound, bounds._robin_values, bounds.ROBIN_C),
    ):
        assert [scalar(n) for n in ns] == values(arguments, float(c)).tolist()


def test_bounds_against_50_digits():
    # both bounds stay within half the slack of the real formula (with
    # the 10-digit gamma) evaluated at 50 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ln2 = mpmath.log(2)
        e_gamma = mpmath.exp(mpmath.mpf(bounds.EULER_GAMMA))
        nc = mpmath.mpf(bounds.NICOLAS_C.numerator) / bounds.NICOLAS_C.denominator
        rc = mpmath.mpf(bounds.ROBIN_C.numerator) / bounds.ROBIN_C.denominator
        for n in bound_sample():
            x = mpmath.mpf(n)
            loglog = mpmath.log(mpmath.log(x))
            pairs = (
                (
                    bounds.nicolas_bound(n),
                    mpmath.exp(mpmath.log(x) * (ln2 / loglog) * (1 + nc / loglog)),
                ),
                (bounds.robin_bound(n), e_gamma * x * loglog + rc * x / loglog),
            )
            for value, real in pairs:
                assert abs(value - real) <= bounds.RELATIVE_SLACK / 2 * real, n


def test_nicolas_error_bound_against_50_digits():
    # the relative error of nicolas_bound stays within the e(n) that the
    # monotonicity certificate allows for, at every sampled n >= 4
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ln2 = mpmath.log(2)
        nc = mpmath.mpf(bounds.NICOLAS_C.numerator) / bounds.NICOLAS_C.denominator
        worst = 0.0
        for n in bound_sample():
            if n < 4:
                continue
            x = mpmath.mpf(n)
            loglog = mpmath.log(mpmath.log(x))
            real = mpmath.exp(mpmath.log(x) * (ln2 / loglog) * (1 + nc / loglog))
            error = abs(bounds.nicolas_bound(n) - real) / real
            assert error <= bounds._nicolas_error(n), n
            worst = max(worst, float(error / bounds._nicolas_error(n)))
        # nor is e(n) vacuous: it is less than 1000 times the worst error
        assert worst > 1e-3


def test_bound_constants():
    assert bounds.NICOLAS_C == Fraction(387, 200)
    assert bounds.ROBIN_C == Fraction(3241, 5000)
    assert bounds.ROBIN_C_ALTERNATE == Fraction(6483, 10000)
    assert bounds.EULER_GAMMA == 0.5772156649


def test_bounds_reject_small_arguments():
    for fn in (
        bounds.nicolas_bound,
        bounds.robin_bound,
        bounds.divisor_bound_at,
        bounds.sigma_bound_at,
    ):
        for bad in (0, 1, 2):
            with pytest.raises(ValueError):
                fn(bad)


def test_divisor_bound_sweep_clean():
    assert bounds.verify_divisor_bound(3, 20000) == []


def test_divisor_bound_dominates_scalar():
    for n in range(3, 2001):
        assert divisor_count(n) <= bounds.nicolas_bound(n), n


def test_sigma_bound_flags_12():
    reports = bounds.verify_sigma_bound(3, 1000)
    assert [r.argument for r in reports] == [12]
    r = reports[0]
    assert r.quantity == "divisor_sum"
    assert r.value == 28
    assert r.violated and not r.borderline
    assert r.margin == SIGMA_12_MARGIN
    assert r.bound == ROBIN_KNOWN[12]


def test_paper_bounds_hold_to_the_sweep_cap():
    # every argument to SWEEP_MAX: d never crosses the paper's bound, and
    # sigma only at n = 12
    assert bounds.verify_divisor_bound(3, bounds.SWEEP_MAX) == []
    reports = bounds.verify_sigma_bound(3, bounds.SWEEP_MAX)
    assert [r.argument for r in reports] == [12]
    assert reports[0].margin == SIGMA_12_MARGIN


def test_scalar_bound_checks_match_sweeps():
    # wherever the sigma sweep flags, sigma_bound_at gives the same report:
    # both take the bound from the one evaluation
    flagged = set()
    for c in (bounds.ROBIN_C, -1):
        for r in bounds.verify_sigma_bound(3, 1000, c):
            s = bounds.sigma_bound_at(r.argument, c)
            assert s == r
            assert s.bound == bounds.robin_bound(r.argument, c)
            assert s.margin == s.bound - s.value
            assert type(s.violated) is bool and type(s.borderline) is bool
            flagged.add(r.argument)
    assert 12 in flagged and len(flagged) > 100
    # the divisor sweep flags nothing on [3, 1000], and neither does the
    # scalar divisor check at those arguments
    assert bounds.verify_divisor_bound(3, 1000) == []
    for k in flagged:
        r = bounds.divisor_bound_at(k)
        assert (r.argument, r.quantity, r.value) == (k, "divisor_count", divisor_count(k))
        assert r.bound == bounds.nicolas_bound(k)
        assert r.margin == r.bound - r.value
        assert not (r.violated or r.borderline)
    unflagged = [k for k in range(3, 1001, 37) if k not in flagged]
    assert len(unflagged) > 10
    for k in unflagged:
        for r in (bounds.divisor_bound_at(k), bounds.sigma_bound_at(k, -1)):
            assert r.margin == r.bound - r.value > 0
            assert not (r.violated or r.borderline)


@pytest.mark.parametrize("k", [2**63 - 1, 2**62 + 7])
def test_scalar_reports_are_exact_at_large_k(k):
    # the report builder reads the argument and the value as the exact
    # ints, past 2**53 and, for sigma(2**63 - 1) and both integrals, past
    # int64; bounds and margins are those of the scalar formulas
    d = bounds.divisor_bound_at(k)
    sigma = bounds.sigma_bound_at(k)
    bracket = bounds.verify_integral_bracket(k)
    for r, value in (
        (d, divisor_count(k)),
        (sigma, divisor_sum(k)),
        (bracket, incomplete_divisor_integral(k)),
    ):
        assert type(r.argument) is int and r.argument == k
        assert type(r.value) is int and r.value == value
        assert not (r.violated or r.borderline)
    assert divisor_sum(2**63 - 1) == 10994507040830097408
    assert d.bound == bounds.nicolas_bound(k) and d.margin == d.bound - d.value
    assert sigma.bound == bounds.robin_bound(k)
    assert sigma.margin == sigma.bound - sigma.value
    lower, upper = bracket.bound
    assert lower == 2.0 * k - bounds.robin_bound(k)
    assert upper == k * bounds.nicolas_bound(k) - k - 1.0
    assert bracket.margin == min(bracket.value - lower, upper - bracket.value)


def test_sigma_bound_alternate_constant_clean():
    assert bounds.verify_sigma_bound(3, 1000, bounds.ROBIN_C_ALTERNATE) == []


def test_sweeps_reject_empty_range():
    with pytest.raises(ValueError):
        bounds.verify_divisor_bound(10, 9)
    with pytest.raises(ValueError):
        bounds.verify_sigma_bound(10, 9)
    for hi in (1, -3):
        with pytest.raises(ValueError, match="empty range"):
            bounds.verify_theorem_sweep(hi)


def verdicts(rule, margin, scale):
    # rule's (violated, borderline) for one margin, classified as the
    # one-entry array a scalar check passes
    violated, borderline = rule(np.array([margin]), np.array([scale]))
    return bool(violated[0]), bool(borderline[0])


def test_classification_slack_band():
    # slack at scale 100 is 1e-10: misses inside it are borderline, not
    # violations, and clear misses beyond it are violations
    assert verdicts(bounds._classify_upper, 1.0, 100.0) == (False, False)
    assert verdicts(bounds._classify_upper, 0.0, 100.0) == (False, True)
    assert verdicts(bounds._classify_upper, -1e-11, 100.0) == (False, True)
    assert verdicts(bounds._classify_upper, -1e-9, 100.0) == (True, False)
    assert verdicts(bounds._classify_lower, -1.0, 100.0) == (False, False)
    assert verdicts(bounds._classify_lower, 1e-9, 100.0) == (True, False)


@pytest.mark.parametrize("slack", [bounds.RELATIVE_SLACK, 1e-6])
def test_scalar_slack_is_the_array_slack(monkeypatch, slack):
    # the slack reads RELATIVE_SLACK when called, and gives none to a
    # scale that is not finite
    monkeypatch.setattr(bounds, "RELATIVE_SLACK", slack)
    scales = [0.0, 1.0, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
    array = bounds._slack(np.array(scales))
    assert array.tolist() == [
        slack, slack, slack, slack * 1e308, slack * 1e308, 0.0, 0.0, 0.0
    ]
    assert verdicts(bounds._classify_upper, -slack * 50, 100.0) == (False, True)
    assert verdicts(bounds._classify_upper, -slack * 200, 100.0) == (True, False)


def test_classification_is_one_rule_for_scalars_and_arrays():
    # the sweeps classify windows, the scalar checks one-entry arrays: the
    # same verdicts either way, with no slack for a bound that is not finite
    margins = [1.0, 0.0, -1e-11, -1e-9, 1e-9, math.inf, -math.inf, math.nan]
    scales = [100.0, 100.0, 100.0, 100.0, 100.0, math.inf, -math.inf, 100.0]
    for rule in (bounds._classify_upper, bounds._classify_lower):
        violated, borderline = rule(np.array(margins), np.array(scales))
        assert [verdicts(rule, m, s) for m, s in zip(margins, scales)] == list(
            zip(violated.tolist(), borderline.tolist())
        )
    assert verdicts(bounds._classify_lower, math.inf, math.inf) == (True, False)
    # a -inf bound in a sweep is a violation
    checked = bounds._upper(np.array([6.0]), np.array([-math.inf]))
    (r,) = bounds._reports("divisor_sum", [5], [6], checked)
    assert (r.argument, r.value, r.margin, r.violated, r.borderline) == (
        5, 6, -math.inf, True, False
    )


def test_bracket_at_12():
    r = bounds.verify_integral_bracket(12)
    assert r.quantity == "integral"
    assert r.value == 44
    lower, upper = r.bound
    assert lower == 2 * 12 - ROBIN_KNOWN[12]
    assert upper == 12 * NICOLAS_KNOWN[12] - 13
    assert r.margin == min(44 - lower, upper - 44)
    assert not r.violated and not r.borderline


def test_bracket_sweep_holds():
    for k in range(3, 2001):
        r = bounds.verify_integral_bracket(k)
        assert r.margin > 0 and not r.violated and not r.borderline, k


def test_theorem_lower_bound_healthy():
    for n in range(2, 101):
        m = count_distinct_dense(n)
        r = bounds.verify_theorem_lower_bound(n, m)
        assert r.quantity == "table_count"
        assert not r.violated and not r.borderline
        # the kernel's floats are those of the formula on Python scalars
        assert r.bound == n * n / bounds.nicolas_bound(n * n)
        assert r.margin == r.bound - m
        # lower bound: the healthy margin (bound - value) is negative
        assert r.margin < 0
        assert r.value > r.bound


def test_theorem_lower_bound_flags_undercount():
    assert bounds.verify_theorem_lower_bound(2, 0).violated


def test_monotonicity_and_floor_checks():
    assert bounds.nicolas_shape_check(10**4) == (True, True)
    # the bound rises from 114 on, not from 113, and its minimum there
    # lies between 114.1 and 114.2
    assert bounds._nicolas_shape(3, 10**4, 113, 114.1) == (False, True)
    assert bounds._nicolas_shape(3, 10**4, 114, 114.2) == (True, False)


def test_nicolas_dips_into_114():
    # the bound decreases into n = 114 and increases after it, which is
    # why the monotonicity check starts there
    assert bounds.nicolas_bound(113) > bounds.nicolas_bound(114)
    assert bounds.nicolas_bound(115) > bounds.nicolas_bound(114)
    assert bounds.nicolas_bound(114) > 114.1


def test_every_report_hashes(monkeypatch):
    # a BoundReport is a frozen dataclass of plain values, so each one,
    # from every path that builds them, hashes and goes into a set
    sigma = bounds.verify_sigma_bound(3, 1000)
    reports = [
        *bounds.verify_divisor_bound(3, 1000, -1),
        *sigma,
        *bounds.verify_bracket_sweep(3, 1000, robin_c=-1),
        bounds.divisor_bound_at(12),
        bounds.sigma_bound_at(12),
        bounds.verify_integral_bracket(12),
        bounds.verify_theorem_lower_bound(5, count_distinct_dense(5)),
    ]
    # forced failures: counts of 0 fail the theorem's check, so the sweep
    # counts every n and reports each once; a table that counts the
    # product 1 once too often (both table sums off by one) and a wrong
    # partial zeta sum fail the identities suite
    monkeypatch.setattr(bounds, "count_distinct_segmented", lambda n: 0)
    monkeypatch.setattr(series, "_grown_tables", grown_with_extra_count(1))
    monkeypatch.setattr(
        series, "_zeta_route", lambda s, n_max: (np.arange(2, n_max + 2),) * 2
    )
    theorem = bounds.verify_theorem_sweep(10)
    identities = series.verify_identities_sweep(3)
    assert [(r.argument, r.value, r.violated) for r in theorem] == [
        (n, 0, True) for n in range(2, 11)
    ]
    assert {r.quantity for r in identities} == {
        "table_sum", "table_sum_weighted",
        *(f"square_identity_s_{s}" for s in (0, -1, 2, 3, 2 + 3j)),
    }
    reports += theorem + identities
    assert len(set(reports)) == len(reports) - 1
    assert hash(bounds.sigma_bound_at(12)) == hash(sigma[0])


def test_reference_densities_shape():
    ref = bounds.reference_densities(1000)
    assert set(ref) == {"erdos_paper_c", "erdos_density", "ford_density"}
    assert 0 < ref["ford_density"] < ref["erdos_density"] < 1
    with pytest.raises(ValueError):
        bounds.reference_densities(2)
