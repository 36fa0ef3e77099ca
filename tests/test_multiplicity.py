"""Table multiplicities: direct enumeration against the closed form."""

from collections import Counter

import numpy as np
import pytest
from oracles import (
    multiplicity_at_k_and_next,
    table_multiplicities_formula,
    table_sum_checks,
)

from mtable.divisors import divisor_count, divisor_list, incomplete_divisor_count
from mtable.multiplicity import (
    TABLE_N_MAX,
    boundary_indicator,
    multiplicity_direct,
    multiplicity_formula,
    table_multiplicities,
)


def divisor_route_sums(n):
    # the sums by direct divisor enumeration at every k in [1, n*n]
    weighted = plain = 0
    for k in range(1, n * n + 1):
        m = multiplicity_direct(n, k)
        plain += m
        weighted += k * m
    return weighted, plain


def brute_table(n):
    return Counter(a * b for a in range(1, n + 1) for b in range(1, n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34])
def test_direct_matches_brute_force(n):
    table = brute_table(n)
    for k in range(1, n * n + 1):
        assert multiplicity_direct(n, k) == table.get(k, 0), k


def test_direct_outside_table():
    assert multiplicity_direct(2, 12) == 0
    assert multiplicity_direct(3, 11) == 0


def test_formula_equals_direct_exhaustive():
    for n in range(2, 41):
        for k in range(1, n * n + 1):
            assert multiplicity_formula(n, k) == multiplicity_direct(n, k), (n, k)


def test_formula_rejects_outside_domain():
    with pytest.raises(ValueError):
        multiplicity_formula(2, 12)
    with pytest.raises(ValueError):
        multiplicity_formula(10, 101)


def test_formula_domain_guard_matters():
    # at (n, k) = (2, 12) the unguarded combination of the same three
    # terms lands on -2 while the true count is 0
    n, k = 2, 12
    within = incomplete_divisor_count(k, n)
    below_quotient = sum(1 for a in divisor_list(k) if a * n <= k)
    assert within - below_quotient + boundary_indicator(n, k) == -2
    assert multiplicity_direct(n, k) == 0


def test_boundary_indicator():
    assert boundary_indicator(3, 12) == 1
    assert boundary_indicator(5, 12) == 0
    assert boundary_indicator(1, 1) == 1
    assert boundary_indicator(7, 13) == 0


def test_boundary_indicator_floor_form_matches_modulo():
    # floor(k/n) - floor((k-1)/n) against the divisibility test k % n == 0
    for n in range(1, 201):
        for k in range(1, 201):
            assert boundary_indicator(n, k) == (1 if k % n == 0 else 0), (n, k)


def test_rejects_nonpositive_arguments():
    for fn in (multiplicity_direct, multiplicity_formula, boundary_indicator):
        with pytest.raises(ValueError):
            fn(0, 5)
        with pytest.raises(ValueError):
            fn(5, 0)


def test_universal_multiplicity_is_divisor_count():
    for k in range(1, 301):
        assert multiplicity_at_k_and_next(k) == (divisor_count(k),) * 2, k


def test_multiplicity_stabilizes_far_past_k():
    assert multiplicity_direct(1000, 12) == divisor_count(12)


def test_monotone_in_table_size():
    for k in (12, 36, 97, 180):
        prev = 0
        for n in range(1, 2 * k):
            cur = multiplicity_direct(n, k)
            assert cur >= prev, (n, k)
            prev = cur
        assert prev == divisor_count(k)


def test_table_multiplicities_match_brute_force():
    n = 30
    table = brute_table(n)
    counts = table_multiplicities(n)
    assert counts[0] == 0
    for k in range(1, n * n + 1):
        assert counts[k] == table.get(k, 0), k


def test_table_formula_route_agrees():
    for n in range(1, 129):
        assert np.array_equal(
            table_multiplicities(n), table_multiplicities_formula(n)
        ), n


def test_table_rejects_oversize():
    for n in (0, TABLE_N_MAX + 1):
        with pytest.raises(ValueError):
            table_multiplicities(n)


def test_sum_checks_closed_forms():
    for n in range(1, 201):
        weighted, plain = table_sum_checks(n)
        assert plain == n * n
        assert weighted == (n * (n + 1) // 2) ** 2


def test_sum_checks_routes_agree():
    for n in (1, 7, 64, 65, 200):
        assert table_sum_checks(n) == divisor_route_sums(n)
