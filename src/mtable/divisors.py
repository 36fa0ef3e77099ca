"""Exact divisor arithmetic.

Single-value routines factorise k (trial division over a 2, 3, 6j +- 1
wheel for its small primes, Miller-Rabin and Pollard-Brent rho for the
rest) and build its divisors from the prime powers; the ranged routine
sieves d(m) or sigma(m) for every m in a window [lo, hi] in one pass, so
long ranges are swept window by window.  The incomplete divisor count
d(k; x) restricts to divisors <= x, and its integral over [1, k] has the
closed form k*d(k) - sigma(k).  record_maxima gives the largest d(m)
and sigma(m)/m over m <= x from the exponents of a short list of
candidates, without factorising or sieving anything.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Literal

import numpy as np

__all__ = [
    "divisor_list",
    "divisor_count",
    "divisor_sum",
    "incomplete_divisor_count",
    "divisor_window",
    "incomplete_divisor_integral",
    "record_maxima",
]

# Scalar routines accept k up to 2**63 - 1.  Factorising divides out the
# primes below _TRIAL_LIMIT, then splits what is left of k with a
# deterministic Miller-Rabin test and Pollard-Brent rho, whose work grows
# as the square root of the smaller factor it finds, so at most as the
# fourth root of that cofactor: under a millisecond for k = 1e14 or the
# prime 2**61 - 1, and about 25 ms for a k near 2**62 whose two prime
# factors are both near 2**31.
MAX_K = 2**63 - 1

# Trial division covers the primes below this; what is left of k then
# has only prime factors above it.
_TRIAL_LIMIT = 1000

# Miller-Rabin with the first twelve primes as bases decides primality
# exactly for every m < 3.18e23 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so for all
# of [1, MAX_K].
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Steps of Pollard-Brent rho between two gcds.
_RHO_BATCH = 128


def _wheel():
    # 2, 3, then every 6j - 1 and 6j + 1: all primes, few composites
    yield 2
    yield 3
    for p in itertools.count(5, 6):
        yield p
        yield p + 2


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for 1 < m < 3.18e23."""
    for a in _MR_BASES:
        if m % a == 0:
            return m == a
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho_factor(m: int) -> int:
    """A proper divisor > 1 of the odd composite m, by Pollard's rho
    with Brent's cycle search, multiplying _RHO_BATCH differences
    together between gcds.  A polynomial x*x + c whose cycles close
    modulo every factor at once is replaced by the next c."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g


def _large_primes(m: int) -> list[int]:
    # the prime factors of m > 1, with multiplicity, in no set order
    if _is_prime(m):
        return [m]
    d = _rho_factor(m)
    return _large_primes(d) + _large_primes(m // d)


def _prime_powers(k: int) -> list[tuple[int, int]]:
    """(p, e) for every prime power p**e exactly dividing k, p ascending.

    Trial division over the wheel takes out every prime below
    _TRIAL_LIMIT, stopping early once the square root of the shrinking
    cofactor is passed.  A cofactor left below the square of the next
    candidate is 1 or a prime; a larger one is split by _large_primes.
    """
    factors = []
    m = k
    for p in _wheel():
        if p * p > m or p >= _TRIAL_LIMIT:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
    if m >= p * p:
        factors += sorted(Counter(_large_primes(m)).items())
    elif m > 1:
        factors.append((m, 1))
    return factors


@lru_cache(maxsize=1 << 15)
def _divisor_tuple(k: int) -> tuple[int, ...]:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, 2**63 - 1], got {k}")
    divs = [1]
    for p, e in _prime_powers(k):
        powers = [p**j for j in range(e + 1)]
        divs = [d * q for d in divs for q in powers]
    return tuple(sorted(divs))


def divisor_list(k: int) -> list[int]:
    """Ascending list of all divisors of k."""
    return list(_divisor_tuple(k))


def divisor_count(k: int) -> int:
    """d(k), the number of divisors of k."""
    return len(_divisor_tuple(k))


def divisor_sum(k: int) -> int:
    """sigma(k), the sum of divisors of k.  Exact (arbitrary precision)."""
    return sum(_divisor_tuple(k))


def incomplete_divisor_count(k: int, x: float) -> int:
    """d(k; x), the number of divisors of k that are <= x.

    x may be any real number; the integer-vs-real comparison is exact, so
    no divisor is ever miscounted at a boundary.  0 when x < 1, d(k) when
    x >= k.
    """
    return sum(1 for m in _divisor_tuple(k) if m <= x)


def divisor_window(
    lo: int, hi: int, quantity: Literal["d", "sigma"] = "d"
) -> np.ndarray:
    """d(m) (int32) or sigma(m) (int64) for every m in [lo, hi]; index j
    holds m = lo + j, and m = 0, when the window holds it, reads 0.

    One pass over divisor pairs (i, m/i) with i <= sqrt(m): each
    i <= sqrt(hi) strides its multiples m >= max(lo, i*(i+1)), adding the
    pair once, and adds itself once at m = i*i.  Memory is the one output
    array whatever lo is, so ranges of any length can be swept window by
    window.
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"window [{lo}, {hi}] must satisfy 0 <= lo <= hi")
    if quantity not in ("d", "sigma"):
        raise ValueError(f"quantity must be 'd' or 'sigma', got {quantity!r}")
    sums = quantity == "sigma"
    out = np.zeros(hi - lo + 1, dtype=np.int64 if sums else np.int32)
    for i in range(1, math.isqrt(hi) + 1):
        # perfect square: i pairs with itself, counted once
        if i * i >= lo:
            out[i * i - lo] += i if sums else 1
        # first multiple of i in the window above i*i
        start = max(i * (i + 1), -(-lo // i) * i)
        if start > hi:
            continue
        if sums:
            # i + m/i for the multiples m = start, start + i, ..., <= hi
            out[start - lo :: i] += np.arange(
                start // i + i, hi // i + i + 1, dtype=np.int64
            )
        else:
            out[start - lo :: i] += 2
    return out


def incomplete_divisor_integral(k: int) -> int:
    """Integral of d(k; x) over x in [1, k], which equals k*d(k) - sigma(k)."""
    divs = _divisor_tuple(k)
    return k * len(divs) - sum(divs)


def _record_steps(
    bits: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[Fraction, ...]]:
    """(ms, ds, ratios): the m < 2**bits, ascending, at which the running
    maximum of d or of sigma(m)/m rises, with both running maxima there.

    Both maxima over m <= x are reached at an m whose exponents do not
    increase over the consecutive primes 2, 3, 5, ...  Moving a number's
    exponents, largest first, onto the smallest primes keeps d, does not
    raise m and does not lower sigma(m)/m = prod 1 + 1/p + ... + 1/p**e,
    whose factor falls with p for each e, and whose ratio between a
    larger and a smaller exponent falls with p too (Ramanujan 1915 for
    d, Alaoglu and Erdos 1944 for sigma(m)/m).  So only those candidates
    are listed, with d and sigma taken from their exponents: 1,274 of
    them below 1e9.
    """
    limit = (1 << bits) - 1
    primes = []
    primorial = 1
    for p in _wheel():
        if primorial * p > limit:
            break
        if _is_prime(p):
            primes.append(p)
            primorial *= p
    candidates = []

    def grow(m, d, sigma, i, most):
        # m has exponents on primes[:i], the last of them `most`
        candidates.append((m, d, sigma))
        if i == len(primes):
            return
        p = primes[i]
        power = p
        for e in range(1, most + 1):
            if m * power > limit:
                break
            grow(m * power, d * (e + 1), sigma * (power * p - 1) // (p - 1), i + 1, e)
            power *= p

    grow(1, 1, 1, 0, bits)
    ms, ds, ratios = [], [], []
    most_d, most_sigma, at = 0, 0, 1
    for m, d, sigma in sorted(candidates):
        # sigma/m against most_sigma/at, exactly
        ratio_rises = sigma * at > most_sigma * m
        if d > most_d or ratio_rises:
            most_d = max(most_d, d)
            if ratio_rises:
                most_sigma, at = sigma, m
            ms.append(m)
            ds.append(most_d)
            ratios.append(Fraction(most_sigma, at))
    return tuple(ms), tuple(ds), tuple(ratios)


# (bits, _record_steps(bits)) for the most bits asked for so far: its
# steps up to any x of no more bits are those of x's own list, so a sweep
# that asks for its upper end first builds one list.
_longest_steps = (0, ((), (), ()))


def record_maxima(x: int) -> tuple[int, Fraction]:
    """(max d(m), max sigma(m)/m) over 1 <= m <= x, exact, for x in
    [1, 2**63 - 1].  The candidates below the next power of two are
    listed when no longer list has been, and the longest list is kept."""
    global _longest_steps
    if not 1 <= x <= MAX_K:
        raise ValueError(f"x must be in [1, 2**63 - 1], got {x}")
    if x.bit_length() > _longest_steps[0]:
        _longest_steps = x.bit_length(), _record_steps(x.bit_length())
    ms, ds, ratios = _longest_steps[1]
    idx = bisect_right(ms, x) - 1
    return ds[idx], ratios[idx]
