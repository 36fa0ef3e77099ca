"""Exact divisor arithmetic.

Single-value routines factorise k by trial division over a 2, 3, 6j +- 1
wheel and build its divisors from the prime powers; the ranged routine
sieves d(m) or sigma(m) for every m in a window [lo, hi] in one pass, so
long ranges are swept window by window.  The incomplete divisor count
d(k; x) restricts to divisors <= x, and its integral over [1, k] has the
closed form k*d(k) - sigma(k).
"""

from __future__ import annotations

import itertools
import math
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
]

# Scalar routines accept k up to 2**63 - 1.  Factorising makes one trial
# division per wheel candidate up to the square root of what is left of
# k once its small prime factors are divided out: well under a
# millisecond for k = 1e14 or 2**62, about 65 ms for a prime near 1e12,
# but well over a minute for the prime 2**61 - 1, and as long for any k
# near 2**63 whose two largest prime factors are both near its square
# root.
MAX_K = 2**63 - 1


def _wheel():
    # 2, 3, then every 6j - 1 and 6j + 1: all primes, few composites
    yield 2
    yield 3
    for p in itertools.count(5, 6):
        yield p
        yield p + 2


def _prime_powers(k: int) -> list[tuple[int, int]]:
    """(p, e) for every prime power p**e exactly dividing k, p ascending.

    Trial division over the wheel, dividing each prime out as it is
    found, so the search stops at the square root of the shrinking
    cofactor rather than of k.
    """
    factors = []
    m = k
    for p in _wheel():
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
    if m > 1:
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
