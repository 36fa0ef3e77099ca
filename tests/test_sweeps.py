"""Windowed bound sweeps against the whole-range oracle.

The oracle is the single-pass form of each sweep: sieve d and sigma for
the whole range with one array per quantity, evaluate the bound over the
whole range at once, and classify it with one call of the value <= bound
kernel, _upper, whose flagged entries _reports makes the reports.  The
windowed sweeps must agree with it exactly, floats compared with ==.

The d and sigma sweeps evaluate their bound only where a value can reach
it once the bound rises; the tests below also pin that screen's rising
points, check that it skips most arguments, also in the first window,
that each sieved window is classified once, and move its start to and
around a window edge.  Past the rising point the sweeps walk doubling
spans and skip those the record maxima clear; the tests count what they
sieve at the paper's constants and for constants the records do not
clear.  The monotonicity and floor checks evaluate the d bound only
below 114 and at span ends; their tests hold them to the whole-range
evaluation, count what they evaluate and check the certificate that
lets them skip the rest on every span to SWEEP_MAX.

The bracket sweep's oracle is the scalar check wherever the bracket
flags: the bracket margins from the bounds evaluated over the whole
range at once, k*d(k) - sigma(k) from the whole-range sieve, the flag
test written out, and verify_integral_bracket for every argument that
test flags, kept where its own verdict flags too; a test ties it to the
scalar check run at every argument.  The theorem sweep's oracle runs
the scalar check at every n.  Where they flag, the sweeps run with the
scalar checks made to raise, since they build their reports from their
own kernels.  The bracket sweep skips a span only when both records,
raised by the bracket's slack, clear their floors under the one
clearance rule, _records_clear, which a test pins to one ulp.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import prefix_counts, scalar_theorem_sweep

from mtable import bounds, products

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
    values = d[lo:].astype(np.float64)
    return bounds._reports(
        "divisor_count", ns, values,
        bounds._upper(values, bounds._nicolas_values(ns, float(c))),
    )


def whole_sigma_sweep(lo, hi, c):
    _, sigma = whole_sieve(hi)
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    values = sigma[lo:].astype(np.float64)
    return bounds._reports(
        "divisor_sum", ns, values,
        bounds._upper(values, bounds._robin_values(ns, float(c))),
    )


def whole_nicolas_values(lo, hi):
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    return bounds._nicolas_values(ns, float(bounds.NICOLAS_C))


def whole_bracket_sweep(lo, hi, robin_c, nicolas_c):
    # the bracket margins over the whole range at once and the flag test
    # of verify_integral_bracket written out; the report of every
    # argument that test flags is the scalar check's own, kept when its
    # verdict flags too
    d, sigma = whole_sieve(hi)
    ks = np.arange(lo, hi + 1, dtype=np.float64)
    middles = ks.astype(np.int64) * d[lo:] - sigma[lo:]
    rc, nc = float(robin_c), float(nicolas_c)
    margins = np.minimum(
        middles - (2.0 * ks - bounds._robin_values(ks, rc)),
        ks * bounds._nicolas_values(ks, nc) - ks - 1.0 - middles,
    )
    slack = bounds.RELATIVE_SLACK * np.maximum(np.abs(middles), 1.0)
    reports = [
        bounds.verify_integral_bracket(lo + int(i), robin_c, nicolas_c)
        for i in np.flatnonzero(margins <= slack)
    ]
    return [r for r in reports if r.violated or r.borderline]


def scalar_checks_raise(monkeypatch):
    # a sweep builds its reports from its kernel's arrays and runs no
    # scalar check, so these may raise once its oracle is computed
    def raising(*args, **kwargs):
        raise AssertionError("a sweep ran a scalar check")

    for name in ("verify_integral_bracket", "verify_theorem_lower_bound"):
        monkeypatch.setattr(bounds, name, raising)


def whole_monotonicity(lo, hi):
    return bool(np.all(np.diff(whole_nicolas_values(lo, hi)) > 0.0))


def whole_floor(lo, hi, floor=114.1):
    return bool(np.all(whole_nicolas_values(lo, hi) > floor))


@pytest.mark.parametrize("c", [bounds.NICOLAS_C, Fraction(1), Fraction(0)])
def test_divisor_sweep_matches_whole_range(c):
    # c = 1 lowers the bound enough to flag arguments in every window
    windowed = bounds.verify_divisor_bound(LO, HI, c)
    assert windowed == whole_divisor_sweep(LO, HI, c)
    if c == 1:
        assert {(r.argument - LO) // bounds.SWEEP_WINDOW for r in windowed} == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "c",
    [bounds.ROBIN_C, bounds.ROBIN_C_ALTERNATE, Fraction(-1), Fraction(0), Fraction(2)],
)
def test_sigma_sweep_matches_whole_range(c):
    windowed = bounds.verify_sigma_bound(LO, HI, c)
    assert windowed == whole_sigma_sweep(LO, HI, c)
    if c == bounds.ROBIN_C:
        assert [r.argument for r in windowed] == [12]


# constants with their closed-form rising points: for d, -7 has two
# positive roots (the larger one past SWEEP_MAX), -1 none (rising from
# 3) and 0 a root at L = 1; for sigma every c <= 0 rises from 3
DIVISOR_CS = [bounds.NICOLAS_C, Fraction(1), Fraction(0), Fraction(-1), Fraction(-7)]
SIGMA_CS = [
    bounds.ROBIN_C, bounds.ROBIN_C_ALTERNATE, Fraction(-1), Fraction(0), Fraction(2)
]

# the screen's windows and rising points at a scale where every constant
# above flags few enough arguments to compare cheaply: six windows
SMALL_WINDOW = 1 << 12
SMALL_HI = 5 * SMALL_WINDOW + 123


@pytest.mark.parametrize(
    "sweep, whole, cs",
    [
        (bounds.verify_divisor_bound, whole_divisor_sweep, DIVISOR_CS),
        (bounds.verify_sigma_bound, whole_sigma_sweep, SIGMA_CS),
    ],
)
@pytest.mark.parametrize(
    "lo", [3, 7, 8, 113, 114, 115, 1000, 3 + SMALL_WINDOW, 114 + SMALL_WINDOW]
)
def test_sweeps_match_whole_range_from_any_lo(monkeypatch, sweep, whole, cs, lo):
    # lo below, on and past the rising points (114 for d at the default
    # constant, 7 for sigma), and on a window edge of a sweep from 3
    monkeypatch.setattr(bounds, "SWEEP_WINDOW", SMALL_WINDOW)
    for c in cs:
        assert sweep(lo, SMALL_HI, c) == whole(lo, SMALL_HI, c), c


def test_divisor_sweep_where_the_bound_overflows(monkeypatch):
    # with c = 550 the d bound rises from about 1600 and overflows to inf
    # soon after; its slack is inf too, yet an inf bound is never flagged
    monkeypatch.setattr(bounds, "SWEEP_WINDOW", SMALL_WINDOW)
    c = Fraction(550)
    with np.errstate(over="ignore"):
        windowed = bounds.verify_divisor_bound(3, SMALL_HI, c)
        assert windowed == whole_divisor_sweep(3, SMALL_HI, c)
        assert bounds._nicolas_values(np.array([4473.0]), 550.0)[0] == math.inf
    assert 1000 < bounds._nicolas_rising_from(float(c)) < 2000
    # the bound is finite, and far above d, from there to n = 4472; the
    # second window starts below 4472 and ends where the bound is inf,
    # which holds for every value and is not flagged
    assert [r.argument for r in windowed if 2000 <= r.argument <= 4472] == []
    assert [r.argument for r in windowed if r.argument > 4472] == []


@pytest.mark.parametrize(
    "sweep, whole, rising, cs",
    [
        (bounds.verify_divisor_bound, whole_divisor_sweep, "_nicolas_rising_from",
         [bounds.NICOLAS_C, Fraction(1)]),
        (bounds.verify_sigma_bound, whole_sigma_sweep, "_robin_rising_from",
         [bounds.ROBIN_C, Fraction(-1)]),
    ],
)
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_screen_starting_at_a_window_edge(
    monkeypatch, sweep, whole, rising, cs, offset
):
    # screening from a later argument than the closed form allows is
    # sound too: start it at the last argument of the first window, the
    # first of the second, or the one after that
    edge = LO + bounds.SWEEP_WINDOW
    monkeypatch.setattr(bounds, rising, lambda c: edge + offset - 0.5)
    for c in cs:
        assert sweep(LO, HI, c) == whole(LO, HI, c), c


@pytest.mark.parametrize(
    "sweep, name",
    [
        (bounds.verify_divisor_bound, "_nicolas_values"),
        (bounds.verify_sigma_bound, "_robin_values"),
    ],
)
def test_screen_skips_most_arguments(monkeypatch, sweep, name):
    # past the first window at most a few hundred arguments per window
    # reach the floor; a sweep that evaluates every argument fails here
    real = getattr(bounds, name)
    evaluated = []

    def counting(ns, c):
        evaluated.append(ns.copy())
        return real(ns, c)

    monkeypatch.setattr(bounds, name, counting)
    expected = [12] if name == "_robin_values" else []
    assert [r.argument for r in sweep(3, HI)] == expected
    ns = np.concatenate(evaluated)
    assert np.count_nonzero(ns >= 3 + bounds.SWEEP_WINDOW) < bounds.SWEEP_WINDOW // 100


@pytest.mark.parametrize(
    "sweep, name, most",
    [
        (bounds.verify_divisor_bound, "_nicolas_values", bounds.SWEEP_WINDOW // 100),
        (bounds.verify_sigma_bound, "_robin_values", bounds.SWEEP_WINDOW // 4),
    ],
)
def test_first_window_is_screened(monkeypatch, sweep, name, most):
    # the first window is sieved, but past the rising point only the
    # arguments whose value reaches its floor get their bound evaluated,
    # in it and in every later window together
    real = getattr(bounds, name)
    evaluated = []

    def counting(ns, c):
        evaluated.append(np.size(ns))
        return real(ns, c)

    monkeypatch.setattr(bounds, name, counting)
    expected = [12] if name == "_robin_values" else []
    assert [r.argument for r in sweep(3, 10**7)] == expected
    assert sum(evaluated) < most


def test_one_classification_per_part(monkeypatch):
    # c = 0 flags arguments in every window; the reports take their
    # verdicts from the one classification of each window the walk sieves
    expected = whole_divisor_sweep(LO, HI, 0)
    real_classify, real_window = bounds._classify_upper, bounds.divisor_window
    calls, sieved = [], []

    def counting(margin, scale):
        calls.append(np.size(margin))
        return real_classify(margin, scale)

    def sieving(lo, hi, quantity="d"):
        sieved.append(hi - lo + 1)
        return real_window(lo, hi, quantity)

    monkeypatch.setattr(bounds, "_classify_upper", counting)
    monkeypatch.setattr(bounds, "divisor_window", sieving)
    windowed = bounds.verify_divisor_bound(LO, HI, 0)
    assert windowed == expected
    assert len(calls) == len(sieved) > 3
    assert max(sieved) <= bounds.SWEEP_WINDOW


def test_unbounded_floor_keeps_the_values():
    # the part below the rising point keeps every argument without a copy
    values = np.arange(10, 20, dtype=np.int64)
    ns, kept = bounds._at_or_above(values, 7, 0.0, -math.inf)
    assert np.shares_memory(kept, values)
    assert ns.tolist() == list(range(7, 17))


@pytest.mark.parametrize(
    "sweep, c, reports",
    [
        (bounds.verify_divisor_bound, bounds.NICOLAS_C, 0),
        (bounds.verify_sigma_bound, bounds.ROBIN_C, 1),
        (bounds.verify_divisor_bound, Fraction(1), None),
        (bounds.verify_sigma_bound, Fraction(-1), None),
        (bounds.verify_bracket_sweep, bounds.ROBIN_C, 0),
        # cleared in part, to 2 * 10**6: (windows, arguments, last window,
        # reports)
        (bounds.verify_sigma_bound, Fraction(0), (12, 12285, (6144, 12287), 26)),
        (bounds.verify_bracket_sweep, Fraction(0), (10, 58365, (29184, 58367), 3)),
    ],
)
def test_records_skip_the_windows_they_clear(monkeypatch, sweep, c, reports):
    # at the paper's constants the record maxima clear every doubling
    # span past the rising point, whatever the upper end, so the d sweep
    # and the bracket (which sieves d and sigma over the same windows)
    # sieve [3, 113] at most and the sigma sweep [3, 27].  d with c = 1
    # and sigma with c = -1 flag arguments all along: past the few spans
    # below 4000 that d clears, every window is sieved, none wider than
    # SWEEP_WINDOW.  sigma with c = 0 and the bracket with robin_c = 0
    # sieve every span up to about 10**4 or 6 * 10**4 and clear the rest
    real = bounds.divisor_window
    sieved = []

    def counting(lo, hi, quantity="d"):
        if quantity == "d" or sweep is bounds.verify_sigma_bound:
            sieved.append((lo, hi))
        return real(lo, hi, quantity)

    monkeypatch.setattr(bounds, "divisor_window", counting)
    if isinstance(reports, tuple):
        windows, arguments, last, flagged = reports
        assert len(sweep(3, 2 * 10**6, c)) == flagged
        assert len(sieved) == windows and sieved[-1] == last
        assert sum(b - a + 1 for a, b in sieved) == arguments
        assert sieved[0][0] == 3
        assert all(b + 1 == a for (_, b), (a, _) in zip(sieved, sieved[1:]))
        return
    if reports is None:
        hi = 10**7
        flagged = sweep(3, hi, c)
        assert max(b - a + 1 for a, b in sieved) <= bounds.SWEEP_WINDOW
        assert all(b + 1 == a for (_, b), (a, _) in zip(sieved[1:], sieved[2:]))
        assert sieved[-1][1] == hi and sieved[1][0] < 4000
        assert len({(r.argument - 3) // bounds.SWEEP_WINDOW for r in flagged}) > 15
        return
    most = 25 if sweep is bounds.verify_sigma_bound else 111
    for hi in (12, 113, 114, 227, 228, 10**4, 3 * 2**19 + 12345, 10**7, 10**9):
        sieved.clear()
        assert len(sweep(3, hi, c)) == reports
        assert sieved[0][0] == 3
        assert sum(b - a + 1 for a, b in sieved) <= most, hi


def test_records_are_compared_with_the_floor_exactly():
    # a floor one ulp above the record clears it, one ulp below does not,
    # where rounding either product to a float could tie them
    hi = 10**6
    most_d, most_ratio = bounds.record_maxima(hi)
    assert bounds._records_clear(3, hi, "d", 0.0, math.nextafter(most_d, math.inf), 0.0)
    assert not bounds._records_clear(3, hi, "d", 0.0, float(most_d), 0.0)
    at_hi = float(most_ratio * hi)
    assert bounds._records_clear(
        3, hi, "sigma", 0.0, math.nextafter(at_hi, math.inf), 0.0
    )
    assert not bounds._records_clear(
        3, hi, "sigma", 0.0, math.nextafter(at_hi, -math.inf), 0.0
    )
    # an affine floor checked at both ends: one above the record at hi
    # but below it at hi // 2 does not clear the window
    slope = float(most_ratio) * (1.0 + 1e-9)
    const = -float(most_ratio) * 1e-9 * 0.75 * hi
    assert bounds._records_clear(hi // 2, hi, "sigma", slope, 0.0, 0.0)
    assert bounds._records_clear(hi - 1, hi, "sigma", slope, const, 0.0)
    assert not bounds._records_clear(hi // 2, hi, "sigma", slope, const, 0.0)
    assert not bounds._records_clear(3, hi, "d", 0.0, -math.inf, 0.0)


def floats_around(x):
    # the least float above the rational x, and the greatest at or below it
    below = float(x)
    if Fraction(below) > x:
        below = math.nextafter(below, -math.inf)
    return math.nextafter(below, math.inf), below


def test_bracket_records_are_compared_with_the_floors_exactly():
    # the bracket holds both bounds with the records raised by its slack
    # per unit of k, RELATIVE_SLACK * D: a floor one ulp above the raised
    # record clears, one ulp below (which still clears the bare record)
    # does not, on either side
    lo, hi = 10**6 // 2, 10**6
    slack = bounds.RELATIVE_SLACK
    most_d, most_ratio = bounds.record_maxima(hi)
    raise_by = Fraction(slack) * most_d
    d_above, d_below = floats_around(most_d + raise_by)
    s_above, s_below = floats_around(most_ratio + raise_by)
    assert d_below > most_d and s_below > most_ratio
    assert bounds._records_clear(lo, hi, "d", 0.0, d_above, slack)
    assert not bounds._records_clear(lo, hi, "d", 0.0, d_below, slack)
    assert bounds._records_clear(lo, hi, "sigma", s_above, 0.0, slack)
    assert not bounds._records_clear(lo, hi, "sigma", s_below, 0.0, slack)
    assert bounds._records_clear(lo, hi, "d", 0.0, d_below, 0.0)
    assert bounds._records_clear(lo, hi, "sigma", s_below, 0.0, 0.0)
    # the affine sigma floor is checked at both ends, and an unbounded
    # floor of either bound clears nothing
    slope = s_above * (1.0 + 1e-9)
    const = -s_above * 1e-9 * 0.75 * hi
    assert bounds._records_clear(hi - 1, hi, "sigma", slope, const, slack)
    assert not bounds._records_clear(lo, hi, "sigma", slope, const, slack)
    assert not bounds._records_clear(lo, hi, "d", 0.0, -math.inf, slack)
    assert not bounds._records_clear(lo, hi, "sigma", 0.0, -math.inf, slack)


def test_nicolas_rising_point_for_the_paper_constant():
    assert 113 < bounds._nicolas_rising_from(float(bounds.NICOLAS_C)) <= 114


def rising_grid(x):
    # every integer from the first past x, then a geometric grid to 1e8 x
    start = float(math.floor(x) + 1)
    grid = [start + np.arange(2000.0), np.geomspace(start, 1e8 * start, 4000)]
    return np.unique(np.concatenate(grid))


@pytest.mark.parametrize("c", DIVISOR_CS)
def test_nicolas_bound_increases_past_its_rising_point(c):
    ns = rising_grid(bounds._nicolas_rising_from(float(c)))
    assert np.all(np.diff(bounds._nicolas_values(ns, float(c))) > 0.0)


@pytest.mark.parametrize("c", SIGMA_CS)
def test_robin_ratio_increases_past_its_rising_point(c):
    # the sigma screen rests on robin_bound(n) / n not decreasing
    ns = rising_grid(bounds._robin_rising_from(float(c)))
    assert np.all(np.diff(bounds._robin_values(ns, float(c)) / ns) > 0.0)


def test_rising_points_in_special_cases():
    # c = -1 gives the Nicolas quadratic no real root, and c <= 0 makes
    # the Robin ratio rise everywhere: screening starts at 3
    assert bounds._nicolas_rising_from(-1.0) < 3
    assert bounds._robin_rising_from(0.0) < 3
    assert bounds._robin_rising_from(-1.0) < 3
    # c = -7 has two positive roots; the larger one lies past the cap
    assert bounds._nicolas_rising_from(-7.0) > bounds.SWEEP_MAX
    # extreme constants neither overflow nor lose the root: it tends to
    # L = 2 as c grows, and to L = -c as c falls
    assert 1600 < bounds._nicolas_rising_from(1e300) < 1700
    assert bounds._nicolas_rising_from(-1e300) == math.inf
    assert bounds._robin_rising_from(1e300) == math.inf


def test_monotonicity_and_floor_match_whole_range():
    # a shape taken from lo = 114, and floors above and below the minimum
    for floor in (114.1, 115.0):
        assert bounds._nicolas_shape(114, HI, 114, floor) == (
            whole_monotonicity(114, HI), whole_floor(114, HI, floor)
        )
        assert bounds._nicolas_shape(3, HI, HI + 1, floor)[1] is whole_floor(
            3, HI, floor
        )


def test_shape_check_matches_whole_range():
    assert bounds.nicolas_shape_check(HI) == (
        whole_monotonicity(114, HI), whole_floor(3, HI)
    )
    assert bounds.nicolas_shape_check(HI, 115.0) == (
        whole_monotonicity(114, HI), whole_floor(3, HI, 115.0)
    )


@pytest.mark.parametrize("dip", [113, 114, 227, 228])
def test_shape_check_sees_a_dip(monkeypatch, dip):
    # the shape check evaluates [3, 113], then the ends of the spans
    # [114, 227], [228, 455], ...: a dip before 114 or at it leaves the
    # bound increasing from 114 on, one at the last argument of the first
    # span or the first of the second does not
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
    assert loop and whole_bracket_sweep(lo, hi, robin_c, nicolas_c) == loop


@pytest.mark.parametrize(
    "robin_c, nicolas_c",
    [(bounds.ROBIN_C, bounds.NICOLAS_C), (Fraction(-1), Fraction(1))],
)
def test_bracket_sweep_matches_scalar_check(monkeypatch, robin_c, nicolas_c):
    # robin_c = -1 flags small k on the lower edge, nicolas_c = 1 flags
    # arguments on the upper edge in every window
    lo = 3
    expected = whole_bracket_sweep(lo, HI, robin_c, nicolas_c)
    scalar_checks_raise(monkeypatch)
    windowed = bounds.verify_bracket_sweep(lo, HI, robin_c, nicolas_c)
    assert windowed == expected
    if nicolas_c == 1:
        assert {(r.argument - lo) // bounds.SWEEP_WINDOW for r in windowed} == {0, 1, 2, 3}
    else:
        assert windowed == []


@pytest.mark.parametrize("robin_c", [bounds.ROBIN_C, Fraction(-1)])
def test_bracket_sweep_matches_scalar_check_from_any_lo(monkeypatch, robin_c):
    # lo below, on and past the rising point 114, and on a window edge of
    # a sweep from 3, over six small windows; at the default constants
    # only [lo, 113] is sieved, and with robin_c = -1, which flags small
    # k, no span clears and every argument is sieved
    monkeypatch.setattr(bounds, "SWEEP_WINDOW", SMALL_WINDOW)
    expected = whole_bracket_sweep(3, SMALL_HI, robin_c, bounds.NICOLAS_C)
    real = bounds.divisor_window
    sieved = []

    def counting(lo, hi, quantity="d"):
        sieved.append(hi - lo + 1 if quantity == "d" else 0)
        return real(lo, hi, quantity)

    monkeypatch.setattr(bounds, "divisor_window", counting)
    for lo in (3, 113, 114, 115, 3 + SMALL_WINDOW):
        sieved.clear()
        windowed = bounds.verify_bracket_sweep(lo, SMALL_HI, robin_c)
        assert windowed == [r for r in expected if r.argument >= lo], lo
        if robin_c == -1:
            assert sum(sieved) == SMALL_HI - lo + 1
        else:
            assert sum(sieved) == max(114 - lo, 0)
    assert (expected != []) is (robin_c == -1)


def test_bracket_sweep_rejects_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        bounds.verify_bracket_sweep(3, 2)
    with pytest.raises(ValueError):
        bounds.verify_bracket_sweep(2, 10)


@pytest.mark.parametrize("offset", [0, 113, 114])
def test_dip_is_seen_on_either_side_of_a_window_edge(monkeypatch, offset):
    # a bound that drops to 0 at one argument: the last argument of the
    # first span from 114, [114, 227], the first argument of the second
    # (seen only by the comparison across spans), or the sweep's first
    # argument
    lo = 114
    dip = lo + offset
    real = bounds._nicolas_values

    def dipped(ns, c):
        values = real(ns, c)
        values[ns == dip] = 0.0
        return values

    monkeypatch.setattr(bounds, "_nicolas_values", dipped)
    increasing, above = bounds._nicolas_shape(lo, HI, lo, 114.1)
    if offset:
        assert whole_monotonicity(lo, HI) is False
        assert increasing is False
    assert whole_floor(lo, HI) is False
    assert above is False


@pytest.mark.parametrize(
    "hi", [115, 116, 200, 10**4, bounds.SWEEP_WINDOW + 2, HI]
)
def test_shape_check_matches_whole_range_at_any_hi(hi):
    # a first window that ends just past 114 or well past it, a second
    # window of one argument, and several windows
    for floor in (114.1, 115.0):
        assert bounds.nicolas_shape_check(hi, floor) == (
            whole_monotonicity(114, hi), whole_floor(3, hi, floor)
        ), floor


def test_floor_inside_a_certified_stretch():
    # the bound at 300000 lies inside the first window's certified
    # stretch: values at and after it clear it, the value at 114 does not
    floor = bounds.nicolas_bound(300000)
    assert bounds.nicolas_shape_check(10**6, floor) == (True, False)
    assert bounds._nicolas_shape(300000, 10**6, 114, floor) == (True, False)
    assert bounds._nicolas_shape(300001, 10**6, 114, floor) == (True, True)


def test_shape_check_evaluates_few_arguments(monkeypatch):
    # [3, 114] and the two ends of each window, where every argument was
    # evaluated before
    real = bounds._nicolas_values
    evaluated = []

    def counting(ns, c):
        evaluated.append(np.size(ns))
        return real(ns, c)

    monkeypatch.setattr(bounds, "_nicolas_values", counting)
    assert bounds.nicolas_shape_check(10**7) == (True, True)
    assert sum(evaluated) < bounds.SWEEP_WINDOW // 100


@pytest.mark.parametrize("lo", [3, 114])
def test_certificate_holds_on_every_window_to_the_cap(lo):
    # every doubling span the shape check walks to SWEEP_MAX, from 3
    # (nicolas_shape_check) or from 114, is certified; a span cut at a
    # smaller hi has a larger step bound and a smaller error, so is too
    start = math.floor(bounds._nicolas_rising_from(float(bounds.NICOLAS_C))) + 1
    assert start == 114
    pieces = list(bounds._walk(lo, bounds.SWEEP_MAX, start, lambda a, b: True))
    spans = [(a, b) for a, b, cleared in pieces if cleared]
    assert [a for a, _ in spans] == [114 * 2**j for j in range(24)]
    assert spans[-1][1] == bounds.SWEEP_MAX
    for a, b in spans:
        assert bounds._nicolas_step(a, b) > 3.0 * bounds._nicolas_error(b), a


def test_uncertified_stretches_are_evaluated_in_full(monkeypatch):
    # with no stretch certified every argument is evaluated, and the
    # checks still match the whole-range evaluation
    real = bounds._nicolas_values
    evaluated = []

    def counting(ns, c):
        evaluated.append(np.size(ns))
        return real(ns, c)

    monkeypatch.setattr(bounds, "_nicolas_values", counting)
    monkeypatch.setattr(bounds, "_nicolas_error", lambda n: math.inf)
    for floor in (114.1, 115.0):
        expected = whole_monotonicity(114, HI), whole_floor(3, HI, floor)
        evaluated.clear()
        assert bounds.nicolas_shape_check(HI, floor) == expected
        assert sum(evaluated) == HI - 2


def test_sweeps_reject_range_above_cap():
    top = bounds.SWEEP_MAX + 1
    for sweep in (
        bounds.verify_divisor_bound,
        bounds.verify_sigma_bound,
        bounds.verify_bracket_sweep,
    ):
        with pytest.raises(ValueError):
            sweep(114, top)


def test_shape_check_rejects_bad_range():
    for hi in (114, bounds.SWEEP_MAX + 1):
        with pytest.raises(ValueError):
            bounds.nicolas_shape_check(hi)


def test_inf_bound_is_never_flagged():
    # c = 400 overflows the d bound at n = 3..18, a bound every d(n) meets
    with np.errstate(over="ignore"):
        assert bounds.verify_divisor_bound(3, 100, 400) == []
        assert bounds._nicolas_values(np.array([18.0]), 400.0)[0] == math.inf
    verdicts = bounds._classify_upper(
        np.array([math.inf, -math.inf]), np.array([math.inf, -math.inf])
    )
    # a bound at +inf is met by every value, and one at -inf violated
    assert [v.tolist() for v in verdicts] == [[False, True], [False, False]]


@pytest.mark.parametrize("hi", [2, 3, 114, 500, 1500, 8192])
def test_theorem_sweep_matches_scalar_checks(hi):
    assert bounds.verify_theorem_sweep(hi) == scalar_theorem_sweep(prefix_counts(hi))


def recorded_counts(monkeypatch, count):
    """The n the theorem sweep counts, in order, once it takes each
    count from count(n)."""
    counted = []

    def seam(n):
        counted.append(n)
        return count(n)

    monkeypatch.setattr(bounds, "count_distinct_segmented", seam)
    return counted


def test_theorem_sweep_counts_four_tables_to_the_cap(monkeypatch):
    counted = recorded_counts(monkeypatch, products.count_distinct_segmented)
    assert bounds.verify_theorem_sweep(products.COUNT_N_MAX) == []
    assert counted == [2, 20, 212, 3412]


def test_theorem_sweep_memory_stays_small():
    # a few arrays of hi entries and one count's window and plan, where a
    # bitmap over [0, hi**2] would take 64 MiB
    tracemalloc.start()
    try:
        bounds.verify_theorem_sweep(8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def _theorem_floor(n):
    return n * n / bounds.nicolas_bound(n * n)


@pytest.mark.parametrize("slack", [bounds.RELATIVE_SLACK, 1e-6])
def test_theorem_sweep_with_counts_at_the_floor(monkeypatch, slack):
    # every count is 2 above the floor's integer part, which is clean, and
    # past n = 559 the floor rises by more than 2 at each step, so the
    # sweep counts every n from 560 on.  There, counts just below the
    # floor are violations; at a slack of 1e-6 the band holds integers,
    # and counts rounded to a floor inside it are borderline.  Counts just
    # above the floor are clean.
    hi = 3000
    monkeypatch.setattr(bounds, "RELATIVE_SLACK", slack)
    counts = np.array(
        [0, 0, *(math.floor(_theorem_floor(n)) + 2 for n in range(2, hi + 1))]
    )
    below = [560, 561, 1000, 2999, hi]
    for n in below:
        counts[n] = math.ceil(_theorem_floor(n)) - 1
    inside = [
        n
        for n in range(1200, hi)
        if abs(_theorem_floor(n) - round(_theorem_floor(n)))
        <= slack * _theorem_floor(n)
    ][:5]
    for n in inside:
        counts[n] = round(_theorem_floor(n))
    for n in (600, 700, 2000):
        counts[n] = math.ceil(_theorem_floor(n)) + 1
    counted = recorded_counts(monkeypatch, lambda n: int(counts[n]))
    expected = scalar_theorem_sweep(counts)
    scalar_checks_raise(monkeypatch)
    reports = bounds.verify_theorem_sweep(hi)
    assert reports == expected
    assert counted == sorted(set(counted)) and counted[0] == 2
    assert set(range(560, hi + 1)) <= set(counted)
    assert {r.argument for r in reports if r.violated} == set(below)
    assert {r.argument for r in reports if r.borderline} == set(inside)
    assert len(inside) == (5 if slack == 1e-6 else 0)


def test_theorem_sweep_counts_where_a_carried_count_is_borderline(monkeypatch):
    # the count carried from n = 2 lands in the slack band at n0 and
    # clears every n before it; a borderline verdict, like a violated
    # one, is settled only by n0's own count, which clears the rest
    monkeypatch.setattr(bounds, "RELATIVE_SLACK", 1e-6)
    n0 = next(
        n
        for n in range(1200, 3000)
        if abs(_theorem_floor(n) - round(_theorem_floor(n))) <= 1e-6 * _theorem_floor(n)
    )
    carried = round(_theorem_floor(n0))
    counted = recorded_counts(
        monkeypatch, lambda n: carried if n < n0 else carried + 10**9
    )
    assert bounds.verify_theorem_sweep(3000) == []
    assert counted == [2, n0]


@pytest.mark.parametrize("slack", [bounds.RELATIVE_SLACK, 1e-6])
@given(data=st.data())
def test_theorem_verdicts_carry_to_larger_counts(slack, data):
    # a verdict of the kernel that is clean at a count L is clean at every
    # count M >= L, which is why the sweep need not count every n; L and M
    # are drawn around the check's edge, near the floor
    n = data.draw(st.integers(2, 10**6), label="n")
    floor = math.floor(_theorem_floor(n))
    reach = math.ceil(3 * slack * floor) + 3
    low = data.draw(st.integers(max(floor - reach, 0), floor + reach), label="L")
    high = data.draw(st.integers(low, floor + reach), label="M")
    square = np.array([float(n * n)])

    def clean(count):
        _, _, violated, borderline = bounds._theorem(square, np.array([count]))
        return not (violated | borderline)[0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "RELATIVE_SLACK", slack)
        at_low, at_high = clean(low), clean(high)
    assert at_high or not at_low


def test_theorem_sweep_checks_the_bound_above_12_everywhere(monkeypatch):
    # a bound that dips below 12 at one n, in both its forms, where the
    # count clears the check anyway: the sweep still raises
    dip = 700
    real_values, real_bound = bounds._nicolas_values, bounds.nicolas_bound

    def dipped_values(ns, c):
        vals = real_values(ns, c)
        vals[ns == dip * dip] = 11.5
        return vals

    def dipped_bound(n, c=bounds.NICOLAS_C):
        return 11.5 if n == dip * dip else real_bound(n, c)

    monkeypatch.setattr(bounds, "_nicolas_values", dipped_values)
    monkeypatch.setattr(bounds, "nicolas_bound", dipped_bound)
    counts = prefix_counts(1000)
    assert dip * dip / 12 < counts[dip] < dip * dip
    with pytest.raises(RuntimeError, match="fell below 12"):
        bounds.verify_theorem_sweep(1000)
