"""End-to-end checks against pinned reference values and tolerances.

Each test prints and records one PASS/FAIL line; the recorded lines are
replayed in a summary section at the end of the pytest run.
"""

import math
import time
from unittest import mock

from conftest import record_criterion
from oracles import (
    count_distinct_dense,
    divisor_step_integral,
    multiplicity_at_k_and_next,
    table_sum_checks,
)

from mtable import bounds, products, series
from mtable.divisors import divisor_count, incomplete_divisor_integral
from mtable.multiplicity import multiplicity_direct, multiplicity_formula

CENSUS_COUNTS = {
    10: 42,
    50: 800,
    100: 2906,
    1000: 248083,
    2000: 959759,
    3000: 2121063,
    4000: 3723723,
    5000: 5770205,
}

CENSUS_DENSITIES = {
    10: "0.4200000000",
    50: "0.3200000000",
    100: "0.2906000000",
    1000: "0.2480830000",
    2000: "0.2399397500",
    3000: "0.2356736667",
    4000: "0.2327326875",
    5000: "0.2308082000",
}

SIGMA_12_MARGIN = -0.00017994591719983077

_dense_cache: dict[int, int] = {}


def _dense(n: int) -> int:
    if n not in _dense_cache:
        _dense_cache[n] = count_distinct_dense(n)
    return _dense_cache[n]


def _check(num: int, description: str, ok: bool, detail: str = ""):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    record_criterion(line)
    assert ok, line


def test_criterion_01_census_reproduction():
    start = time.perf_counter()
    points = products.census(sorted(CENSUS_COUNTS))
    elapsed = time.perf_counter() - start
    counts_ok = all(p.distinct_count == CENSUS_COUNTS[p.n] for p in points)
    density_ok = all(f"{p.density:.10f}" == CENSUS_DENSITIES[p.n] for p in points)
    seg_start = time.perf_counter()
    seg = products.census([5000])[0]
    seg_elapsed = time.perf_counter() - seg_start
    ok = (
        counts_ok
        and density_ok
        and seg.distinct_count == CENSUS_COUNTS[5000]
        and elapsed < 60.0
        and seg_elapsed < 10.0
    )
    _check(
        1,
        "census counts and 10-digit densities at the eight reference points",
        ok,
        f"census {elapsed:.1f}s, segmented n=5000 {seg_elapsed:.2f}s",
    )


def test_criterion_02_formula_equals_direct():
    mismatch = None
    for n in range(2, 201):
        for k in range(1, n * n + 1):
            if multiplicity_formula(n, k) != multiplicity_direct(n, k):
                mismatch = (n, k)
                break
        if mismatch:
            break
    rejects = False
    try:
        multiplicity_formula(2, 12)
    except ValueError:
        rejects = multiplicity_direct(2, 12) == 0
    ok = mismatch is None and rejects
    _check(
        2,
        "closed form equals direct enumeration on every table up to n=200 "
        "and rejects k beyond n*n",
        ok,
        "clean" if ok else f"first mismatch {mismatch}",
    )


def test_criterion_03_exact_identities():
    sums_ok = all(
        table_sum_checks(n) == ((n * (n + 1) // 2) ** 2, n * n)
        for n in range(1, 201)
    )
    exact_ok = all(
        series.verify_square_identity(s, n).max_abs_deviation == 0.0
        for n in range(1, 501)
        for s in (0, -1)
    )
    worst = 0.0
    for n in range(1, 501):
        for s in (2, 3, 2 + 3j):
            cmp = series.verify_square_identity(s, n)
            worst = max(
                worst, cmp.max_abs_deviation / abs(cmp.zeta_partial_squared)
            )
    ok = sums_ok and exact_ok and worst <= 1e-9
    _check(
        3,
        "table sums hit their closed forms and the square identity holds at "
        "all five exponents up to n=500",
        ok,
        f"worst relative deviation {worst:.2e}",
    )


def test_criterion_04_integral_identity_and_bracket():
    step_ok = all(
        divisor_step_integral(k) == incomplete_divisor_integral(k)
        for k in range(3, 10**4 + 1)
    )
    worst = math.inf
    bracket_ok = True
    for k in range(3, 10**4 + 1):
        r = bounds.verify_integral_bracket(k)
        worst = min(worst, r.margin)
        bracket_ok = bracket_ok and not r.violated and not r.borderline
    ok = step_ok and bracket_ok and worst > 0
    _check(
        4,
        "k*d(k) - sigma(k) equals the step sum up to k=1e4 and stays strictly "
        "inside its bracket",
        ok,
        f"smallest bracket margin {worst:.6f}",
    )


def test_criterion_05_divisor_bound_sweep():
    start = time.perf_counter()
    reports = bounds.verify_divisor_bound(3, 10**6)
    elapsed = time.perf_counter() - start
    ok = reports == [] and elapsed < 30.0
    _check(
        5,
        "d(n) stays below its explicit bound for all n up to 1e6",
        ok,
        f"{elapsed:.1f}s, {len(reports)} flagged",
    )


def test_criterion_06_sigma_bound_two_constants():
    clean = bounds.verify_sigma_bound(3, 10**6, bounds.ROBIN_C_ALTERNATE)
    default = bounds.verify_sigma_bound(3, 10**6)
    ok = (
        clean == []
        and [r.argument for r in default] == [12]
        and default[0].violated
        and not default[0].borderline
        and default[0].margin == SIGMA_12_MARGIN
    )
    detail = (
        f"margin at 12: {default[0].margin!r}" if default else "nothing flagged"
    )
    _check(
        6,
        "sigma bound: clean sweep with the alternate constant, and the n=12 "
        "crossing surfaces with its pinned margin",
        ok,
        detail,
    )


def test_criterion_07_distinct_count_lower_bound():
    ok = True
    worst = math.inf
    checks = [(n, _dense(n)) for n in range(2, 501)]
    checks += sorted(CENSUS_COUNTS.items())
    for n, m in checks:
        r = bounds.verify_theorem_lower_bound(n, m)
        clearance = r.value - r.bound
        worst = min(worst, clearance)
        ok = ok and clearance > 0 and not r.violated and not r.borderline
    _check(
        7,
        "every measured M(n) clears its explicit lower bound, n up to 500 "
        "plus the census points",
        ok,
        f"smallest clearance {worst:.3e}",
    )


def test_criterion_08_universal_multiplicity():
    stable_ok = all(
        multiplicity_at_k_and_next(k) == (divisor_count(k),) * 2
        for k in range(1, 2001)
    )
    monotone_ok = True
    for k in range(1, 201):
        prev = -1
        for n in sorted(set(range(1, 401, 7)) | {k, k + 1, 400}):
            cur = multiplicity_direct(n, k)
            if cur < prev:
                monotone_ok = False
            prev = cur
    ok = stable_ok and monotone_ok
    _check(
        8,
        "multiplicity stabilizes at d(k) from n=k on (k up to 2000) and never "
        "decreases in n on the sampled grid",
        ok,
    )


def test_criterion_09_bound_monotone_and_floored():
    increasing, floored = bounds.nicolas_shape_check(10**6)
    ok = increasing and floored
    _check(
        9,
        "divisor-count bound strictly increases from 114 on and stays above "
        "114.1 from n=3 up to 1e6",
        ok,
    )


def test_criterion_10_truncated_square_convergence():
    gaps = [
        series.zeta_square_truncation(2, k_max)["gap"]
        for k_max in (100, 1000, 10**4, 10**5)
    ]
    partial = series.zeta_square_truncation(2, 10**5)["partial"]
    final = abs(partial - math.pi**4 / 36)
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and final < 1e-2
    _check(
        10,
        "d(k)/k^2 partial sums approach pi^4/36 with the gap shrinking at "
        "every decade",
        ok,
        f"gap at 1e5: {gaps[-1]:.2e}",
    )


def test_criterion_11_route_agreement():
    mismatch = None
    for bits in (1 << 16, 1 << 20, 1 << 24):
        with mock.patch.object(products, "SEGMENT_WINDOW", bits):
            n = next(
                (n for n in range(1, 2001)
                 if products.count_distinct_segmented(n) != _dense(n)),
                None,
            )
        if n is not None:
            mismatch = (n, bits)
            break
    # forked workers for every count, however few its windows
    with mock.patch.object(products, "POOL_MIN_WINDOWS", 1):
        parallel_ok = all(
            products.count_distinct_segmented(n) == _dense(n)
            for n in (1, 7, 64, 500, 1500, 2000)
        )
    ok = mismatch is None and parallel_ok
    _check(
        11,
        "segmented counts match dense for every n up to 2000 at three window "
        "lengths, parallel included",
        ok,
        "clean" if ok else f"first mismatch {mismatch}",
    )
