"""Divisor arithmetic against brute-force oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import divisor_step_integral, record_steps, trial_prime_powers

from mtable import divisors
from mtable.divisors import (
    MAX_K,
    _is_prime,
    _prime_powers,
    divisor_count,
    divisor_list,
    divisor_sum,
    divisor_window,
    incomplete_divisor_count,
    incomplete_divisor_integral,
    record_maxima,
)


def brute_divisors(k):
    return [i for i in range(1, k + 1) if k % i == 0]


def test_divisor_list_small():
    assert divisor_list(1) == [1]
    assert divisor_list(12) == [1, 2, 3, 4, 6, 12]
    assert divisor_list(28) == [1, 2, 4, 7, 14, 28]
    assert divisor_list(97) == [1, 97]


def test_divisor_list_matches_brute_force():
    for k in range(1, 2001):
        assert divisor_list(k) == brute_divisors(k), k


def test_count_and_sum_known_values():
    assert divisor_count(12) == 6
    assert divisor_sum(12) == 28
    assert divisor_count(100) == 9
    assert divisor_sum(100) == 217
    assert divisor_count(1) == divisor_sum(1) == 1


def test_count_and_sum_perfect_square():
    assert divisor_count(36) == 9
    assert divisor_sum(36) == 91


def test_rejects_nonpositive():
    for bad in (0, -5):
        with pytest.raises(ValueError):
            divisor_list(bad)


def test_incomplete_count_boundaries():
    assert incomplete_divisor_count(12, 0.5) == 0
    assert incomplete_divisor_count(12, 1) == 1
    assert incomplete_divisor_count(12, 3.5) == 3
    # a divisor sitting exactly at x counts
    assert incomplete_divisor_count(12, 4) == 4
    assert incomplete_divisor_count(12, 11.99) == 5
    assert incomplete_divisor_count(12, 12) == divisor_count(12)
    assert incomplete_divisor_count(12, 1e9) == divisor_count(12)


def test_incomplete_count_matches_brute_force():
    for k in (7, 30, 360):
        divs = brute_divisors(k)
        for tenths in range(0, 10 * k + 11):
            x = tenths / 10
            assert incomplete_divisor_count(k, x) == sum(1 for m in divs if m <= x)


def test_sieve_matches_scalar_routines():
    limit = 5000
    d, sigma = divisor_window(0, limit, "d"), divisor_window(0, limit, "sigma")
    assert d[0] == sigma[0] == 0
    for k in range(1, limit + 1):
        assert d[k] == divisor_count(k), k
        assert sigma[k] == divisor_sum(k), k


def test_sieve_large_spot_values():
    d, sigma = divisor_window(0, 10**6, "d"), divisor_window(0, 10**6, "sigma")
    # a prime, a highly composite number, and the top of the range
    assert d[999983] == 2 and sigma[999983] == 999984
    assert d[720720] == 240 and sigma[720720] == 3249792
    assert d[10**6] == 49 and sigma[10**6] == 2480437


def test_window_kernel_matches_scalar_routines():
    # windows starting at 0, at 1, at a square (31^2, where i = 31 adds
    # itself once), at 31*32 (where i = 31 starts striding) and at an
    # arbitrary value; each ends one past lo and at a perfect square
    for lo in (0, 1, 961, 992, 12345):
        square = (math.isqrt(lo) + 20) ** 2
        for hi in (lo, lo + 1, square):
            d = divisor_window(lo, hi)
            sigma = divisor_window(lo, hi, "sigma")
            assert d.dtype == "int32" and sigma.dtype == "int64"
            assert len(d) == len(sigma) == hi - lo + 1
            for m in range(max(lo, 1), hi + 1):
                assert d[m - lo] == divisor_count(m), (lo, hi, m)
                assert sigma[m - lo] == divisor_sum(m), (lo, hi, m)
            if lo == 0:
                assert d[0] == sigma[0] == 0


def test_window_kernel_rejects_bad_windows():
    for lo, hi in ((-1, 5), (10, 9)):
        with pytest.raises(ValueError):
            divisor_window(lo, hi)
    with pytest.raises(ValueError):
        divisor_window(1, 10, "phi")


def test_integral_closed_form():
    assert incomplete_divisor_integral(1) == 0
    assert incomplete_divisor_integral(7) == 7 * 2 - 8
    assert incomplete_divisor_integral(12) == 12 * 6 - 28


def test_integral_step_sum_sweep():
    # the area under the divisor-counting step function equals the
    # closed form k*d(k) - sigma(k)
    for k in range(1, 3001):
        assert divisor_step_integral(k) == incomplete_divisor_integral(k), k


def trial_divisors(k):
    # plain trial division up to sqrt(k)
    small = [i for i in range(1, math.isqrt(k) + 1) if k % i == 0]
    return small + [k // i for i in reversed(small) if i * i != k]


def test_factorised_divisors_match_trial_division():
    for k in range(1, 10**4 + 1):
        assert divisor_list(k) == trial_divisors(k), k
    rng = random.Random(20240611)
    for k in [rng.randrange(1, 10**9) for _ in range(100)]:
        assert divisor_list(k) == trial_divisors(k), k


def test_factorised_divisors_large_k():
    # 999983 is the largest prime below 1e6 and 999999999989 the largest
    # below 1e12; prime powers have closed-form divisor lists
    for k in (999983**2, 999999999989):
        assert divisor_list(k) == trial_divisors(k), k
    assert divisor_list(999983**2) == [1, 999983, 999983**2]
    assert divisor_list(999999999989) == [1, 999999999989]
    assert divisor_list(2**62) == [2**j for j in range(63)]
    assert divisor_list(10**14) == sorted(
        2**a * 5**b for a in range(15) for b in range(15)
    )


def test_factorised_mersenne_prime():
    # the prime 2**61 - 1 is left whole by trial division and has to be
    # recognised by the primality test
    p = 2**61 - 1
    assert _prime_powers(p) == [(p, 1)]
    assert divisor_list(p) == [1, p]
    assert divisor_sum(p) == 2**61


def test_factorised_products_of_two_large_primes():
    # 2**31 - 1 and 2147483629 are the two largest primes below 2**31; a
    # product of primes this close to its square root is rho's worst case
    p, q = 2**31 - 1, 2147483629
    assert trial_prime_powers(q) == [(q, 1)]
    assert _prime_powers(p * q) == [(q, 1), (p, 1)]
    assert _prime_powers(p * p) == [(p, 2)]
    assert divisor_list(p * q) == [1, q, p, p * q]
    # 2**63 - 1 = 7**2 * 73 * 127 * 337 * 92737 * 649657
    assert _prime_powers(2**63 - 1) == trial_prime_powers(2**63 - 1)


def test_primality_matches_a_sieve_and_rejects_strong_pseudoprimes():
    limit = 10**5
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, limit, i))
    assert [m for m in range(2, limit) if _is_prime(m)] == [
        m for m in range(2, limit) if sieve[m]
    ]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base
    # up to 37 but 29, 31 and 37; the second is below MAX_K and needs them
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _prime_powers(3825123056546413051) == [
        (149491, 1), (747451, 1), (34233211, 1)
    ]


# numbers whose cofactor after trial division is a product of two primes
# above the trial limit, a square of one, or a prime, as well as plain k
@given(
    st.one_of(
        st.integers(1, 10**12),
        st.tuples(st.integers(1000, 10**6), st.integers(1000, 10**6)).map(
            lambda ab: ab[0] * ab[1]
        ),
        st.integers(1000, 10**6).map(lambda a: a * a),
    )
)
def test_factorisation_matches_trial_division(k):
    assert _prime_powers(k) == trial_prime_powers(k)


def sieved_record_steps(hi, width=1 << 20):
    # (m, D(m), A(m)) wherever the running maximum of d(m) or of
    # sigma(m)/m rises over m in [1, hi], from divisor_window; floats
    # only preselect the m whose ratio may rise, decided exactly
    steps = []
    most_d, most_sigma, at = 0, 0, 1
    for lo in range(1, hi + 1, width):
        top = min(lo + width - 1, hi)
        d = divisor_window(lo, top, "d")
        sigma = divisor_window(lo, top, "sigma")
        ratio = sigma / np.arange(lo, top + 1, dtype=np.float64)
        d_before = np.maximum(most_d, np.maximum.accumulate(d))
        ratio_before = np.maximum(most_sigma / at, np.maximum.accumulate(ratio))
        d_before[1:], d_before[0] = d_before[:-1], most_d
        ratio_before[1:], ratio_before[0] = ratio_before[:-1], most_sigma / at
        maybe = (d > d_before) | (ratio >= ratio_before * (1.0 - 1e-12))
        for idx in np.flatnonzero(maybe):
            m, dm, sm = lo + int(idx), int(d[idx]), int(sigma[idx])
            ratio_rises = sm * at > most_sigma * m
            if dm > most_d or ratio_rises:
                most_d = max(most_d, dm)
                if ratio_rises:
                    most_sigma, at = sm, m
                steps.append((m, most_d, Fraction(most_sigma, at)))
    return steps


def test_record_maxima_are_the_running_maxima_of_the_sieve():
    # D(x) and A(x) are step functions of x, so equal steps make them
    # equal at every x <= 1e7
    hi = 10**7
    steps = [s for s in record_steps(hi.bit_length()) if s[0] <= hi]
    assert steps == sieved_record_steps(hi)
    for m, most_d, most_ratio in steps:
        assert record_maxima(m) == (most_d, most_ratio)
    for before, after in zip(steps, steps[1:]):
        assert record_maxima(after[0] - 1) == before[1:]
    assert record_maxima(hi) == steps[-1][1:]


def table_steps():
    return [(m, most_d, Fraction(num, den)) for m, most_d, num, den in divisors._RECORDS]


def test_record_table_is_the_candidates_steps():
    # the frozen table is every step below 2**63 of the running maxima
    # over the candidates with exponents falling along the primes
    steps = table_steps()
    assert len(steps) == 179
    assert steps == record_steps(63)


def test_record_maxima_at_every_step():
    # at each step the maxima are that row's; one below it, the row
    # before's
    steps = table_steps()
    assert record_maxima(1) == steps[0][1:]
    for before, (m, most_d, most_ratio) in zip(steps, steps[1:]):
        assert record_maxima(m) == (most_d, most_ratio), m
        assert record_maxima(m - 1) == before[1:], m
    assert record_maxima(MAX_K) == steps[-1][1:]


def test_records_are_their_own_divisor_counts_and_sums():
    # where D rises at m it is d(m), and where A rises it is sigma(m)/m,
    # from the scalar factorisation; at every step below 2**63
    previous_d, previous_ratio = 0, 0
    for m, most_d, most_ratio in table_steps():
        if most_d > previous_d:
            assert divisor_count(m) == most_d, m
        if most_ratio > previous_ratio:
            assert Fraction(divisor_sum(m), m) == most_ratio, m
        previous_d, previous_ratio = most_d, most_ratio
    # the d record to 1e9 is 735134400 = 2**6 * 3**3 * 5**2 * 7 * 11 * 13 * 17
    assert record_maxima(10**9)[0] == divisor_count(735134400) == 1344


def test_record_maxima_rejects_out_of_range():
    assert record_maxima(1) == (1, 1)
    # OEIS A066150: the most divisors of any m <= 1e18
    assert record_maxima(10**18)[0] == 103680
    assert record_maxima(MAX_K) == record_maxima(MAX_K - 1)
    for x in (0, -5, MAX_K + 1):
        with pytest.raises(ValueError):
            record_maxima(x)
