"""Partial zeta sums and the multiplication-table square identity.

Summing (a*b)**-s over the n-by-n grid factors as the square of the
partial zeta sum over [1, n], and regrouping the grid by product value
turns the same quantity into a multiplicity-weighted sum over k.  All
three routes are evaluated independently and compared; at s = 0 and
s = -1 every route is exact integer arithmetic and must agree exactly.

Floating-point sums are accumulated by one helper, _fsum_blocks (numpy
within a block, or a row of the grid; math.fsum across block partials),
which keeps the result deterministic and within a few ulps regardless
of length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import BoundReport
from .divisors import divisor_window
from .multiplicity import table_multiplicities, table_sum_checks
from .products import _window_ranges

__all__ = [
    "SeriesComparison",
    "zeta_partial",
    "verify_square_identity",
    "verify_identities_sweep",
    "zeta_square_truncation",
]

# Grid enumeration is O(n^2) terms; this cap keeps one identity check
# near a second.
IDENTITY_N_MAX = 2000

# Largest n_max verify_identities_sweep accepts.  It checks every table up
# to n_max, so its time grows about as n_max**2.7: on 2 shared vCPUs it
# took 0.07 s at 100, 5.3 s at 500 (the reach of acceptance criterion 03)
# and 19 s at 800.
IDENTITY_SWEEP_N_MAX = 500
_IDENTITY_EXPONENTS = (0, -1, 2, 3, 2 + 3j)

# Largest truncation point zeta_square_truncation accepts.  It sums one
# window of _BLOCK values at a time, so memory stays at a few block-sized
# arrays (the process peaked at about 70 MB at 1e7) and the cap bounds
# time: the call took about 0.5 s at 1e7.
TRUNCATION_K_MAX = 10**7

_BLOCK = 1 << 20
_ROW_BLOCK = 128

# Reference zeta values: closed forms where available, else a partial
# sum to this length plus the integral tail correction.
_REFERENCE_TERMS = 10**7
_CLOSED_FORMS = {
    2.0: math.pi**2 / 6,
    4.0: math.pi**4 / 90,
    6.0: math.pi**6 / 945,
}


@dataclass(frozen=True)
class SeriesComparison:
    """The three routes of the square identity at one (s, n); ok is
    max_abs_deviation <= tolerance (see verify_square_identity)."""

    s: complex
    n: int
    grid_sum: complex
    zeta_partial_squared: complex
    multiplicity_sum: complex
    max_abs_deviation: float
    tolerance: float
    ok: bool


def _fsum_blocks(blocks) -> complex:
    # math.fsum of the numpy sums of each array of terms in blocks, one
    # per row of a 2-D array, the real and imaginary parts apart
    re_parts: list[float] = []
    im_parts: list[float] = []
    for terms in blocks:
        re_parts += np.atleast_1d(terms.real.sum(axis=-1)).tolist()
        if np.iscomplexobj(terms):
            im_parts += np.atleast_1d(terms.imag.sum(axis=-1)).tolist()
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def _power_terms(base: np.ndarray, s: complex) -> np.ndarray:
    # base is a positive float64 array, so ln is real and x**-s is
    # exactly exp(-s ln x) with no branch-cut choice to make; real
    # exponents stay on the real exp to skip the imaginary half
    if s.imag == 0.0:
        return np.exp(-s.real * np.log(base))
    return np.exp(-s * np.log(base))


def zeta_partial(s: complex, n: int) -> complex:
    """Sum of i**-s for i in [1, n].

    s = 0 and s = -1 return the exact closed forms n and n(n+1)/2; other
    exponents are summed blockwise in ascending order.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    s = complex(s)
    if s == 0:
        return complex(n)
    if s == -1:
        return complex(n * (n + 1) // 2)
    return _fsum_blocks(
        _power_terms(np.arange(lo, hi + 1, dtype=np.float64), s)
        for lo, hi in _window_ranges(1, n, _BLOCK)
    )


def _grid_blocks(n: int):
    # the products a*b of the n-table, _ROW_BLOCK rows a at a time
    cols = np.arange(1, n + 1, dtype=np.int64)
    for lo, hi in _window_ranges(1, n, _ROW_BLOCK):
        rows = np.arange(lo, hi + 1, dtype=np.int64)
        yield rows[:, None] * cols[None, :]


def _grid_sum_exact(s: complex, n: int) -> int:
    # s = 0 counts the grid's terms, s = -1 adds its products
    return sum(
        products.size if s == 0 else int(products.sum())
        for products in _grid_blocks(n)
    )


def _grid_sum(s: complex, n: int) -> complex:
    return _fsum_blocks(
        _power_terms(products.astype(np.float64), s) for products in _grid_blocks(n)
    )


def _multiplicity_sum(s: complex, ks: np.ndarray, weights: np.ndarray) -> complex:
    # weights[j] is the multiplicity of the product ks[j]
    if s == 0:
        return complex(int(weights.sum()))
    if s == -1:
        return complex(int(np.dot(ks, weights)))
    terms = weights.astype(np.float64) * _power_terms(ks.astype(np.float64), s)
    return _fsum_blocks(
        terms[lo : hi + 1] for lo, hi in _window_ranges(0, terms.size - 1, _BLOCK)
    )


def _table_products(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (the products of a table, their multiplicities) from its counts
    ks = np.flatnonzero(counts)
    return ks, counts[ks]


def _square_identity(
    s: complex, n: int, ks: np.ndarray, weights: np.ndarray
) -> SeriesComparison:
    # verify_square_identity with the n-table's _table_products given
    exact = s in (0, -1)
    grid = complex(_grid_sum_exact(s, n)) if exact else _grid_sum(s, n)
    zsq = zeta_partial(s, n) ** 2
    mult = _multiplicity_sum(s, ks, weights)
    deviation = max(abs(grid - zsq), abs(grid - mult), abs(zsq - mult))
    tolerance = 0.0 if exact else 1e-9 * abs(zsq)
    return SeriesComparison(
        s=s,
        n=n,
        grid_sum=grid,
        zeta_partial_squared=zsq,
        multiplicity_sum=mult,
        max_abs_deviation=deviation,
        tolerance=tolerance,
        ok=deviation <= tolerance,
    )


def verify_square_identity(s: complex, n: int) -> SeriesComparison:
    """Evaluate the grid sum, the squared partial zeta sum, and the
    multiplicity-weighted sum at the same (s, n) and report the largest
    pairwise deviation.

    At s = 0 and s = -1 all three routes are exact integers and the
    deviation must be exactly 0.  Elsewhere the routes agree to within
    1e-9 relative of the squared partial sum.  The comparison's
    tolerance and ok fields carry that rule.  An (s, n) at which any of
    the three sums is not finite, as when its terms overflow a float, is
    a domain error (ValueError), not a failed identity.
    """
    if not 1 <= n <= IDENTITY_N_MAX:
        raise ValueError(f"n must be in [1, {IDENTITY_N_MAX}], got {n}")
    cmp = _square_identity(complex(s), n, *_table_products(table_multiplicities(n)))
    sums = (cmp.grid_sum, cmp.zeta_partial_squared, cmp.multiplicity_sum)
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in sums):
        raise ValueError(
            f"the sums at s = {cmp.s}, n = {n} are not finite: grid sum {sums[0]}, "
            f"zeta partial squared {sums[1]}, multiplicity sum {sums[2]}"
        )
    return cmp


def verify_identities_sweep(n_max: int) -> list[BoundReport]:
    """Violated reports of the exact table sums and of the square identity
    at each of the exponents 0, -1, 2, 3 and 2+3j, over every table size
    n in [1, n_max].

    The multiplicities of the n-table are grown from those of the
    (n-1)-table and shared by the five exponents, so each comparison is
    verify_square_identity(s, n)'s own without its table being rebuilt.
    n_max below 1 or above IDENTITY_SWEEP_N_MAX is rejected before any
    table runs.
    """
    if n_max < 1:
        raise ValueError(f"empty range [1, {n_max}]")
    if n_max > IDENTITY_SWEEP_N_MAX:
        raise ValueError(
            f"the identities sweep ends at most at n = {IDENTITY_SWEEP_N_MAX}, "
            f"got {n_max}"
        )
    reports = []
    # the n-table is the (n-1)-table plus the products n*a and a*n for
    # a < n and n*n, so one array grows through every table size
    grown = np.zeros(n_max * n_max + 1, dtype=np.int64)
    for n in range(1, n_max + 1):
        grown[n : n * (n - 1) + 1 : n] += 2
        grown[n * n] += 1
        products = _table_products(grown[: n * n + 1])
        weighted, plain = table_sum_checks(n)
        for quantity, got, expected in (
            ("table_sum", plain, n * n),
            ("table_sum_weighted", weighted, (n * (n + 1) // 2) ** 2),
        ):
            if got != expected:
                reports.append(BoundReport(
                    n, quantity, float(got), float(expected), float(expected - got),
                    violated=True, borderline=False,
                ))
        for s in _IDENTITY_EXPONENTS:
            cmp = _square_identity(complex(s), n, *products)
            if not cmp.ok:
                dev, tol = cmp.max_abs_deviation, cmp.tolerance
                reports.append(BoundReport(
                    n, f"square_identity_s_{s}", dev, tol, tol - dev,
                    violated=True, borderline=False,
                ))
    return reports


@lru_cache(maxsize=16)
def _zeta_reference(s: float) -> float:
    """zeta(s) for real s > 1: closed form at even integers, otherwise a
    long partial sum plus the integral tail N**(1-s)/(s-1) - N**-s/2."""
    if s in _CLOSED_FORMS:
        return _CLOSED_FORMS[s]
    tail = _REFERENCE_TERMS ** (1.0 - s) / (s - 1.0) - 0.5 * _REFERENCE_TERMS**-s
    return zeta_partial(s, _REFERENCE_TERMS).real + tail


def zeta_square_truncation(s: float, k_max: int) -> dict:
    """Distance between the d(k)-weighted power sum truncated at k_max
    and its limit zeta(s)**2.

    Returns {"partial", "reference", "gap"}; the gap shrinks as the
    truncation point grows.  Requires real s >= 1.5 (convergence slows
    badly below that) and 10 <= k_max <= TRUNCATION_K_MAX.
    """
    s = float(s)
    if s < 1.5:
        raise ValueError(f"s must be >= 1.5, got {s}")
    if not 10 <= k_max <= TRUNCATION_K_MAX:
        raise ValueError(f"k_max must be in [10, {TRUNCATION_K_MAX}], got {k_max}")
    partial = _fsum_blocks(
        divisor_window(lo, hi, "d")
        * _power_terms(np.arange(lo, hi + 1, dtype=np.float64), complex(s))
        for lo, hi in _window_ranges(1, k_max, _BLOCK)
    ).real
    reference = _zeta_reference(s) ** 2
    return {"partial": partial, "reference": reference, "gap": abs(partial - reference)}
