"""Partial zeta sums and the multiplication-table square identity.

Summing (a*b)**-s over the n-by-n grid factors as the square of the
partial zeta sum over [1, n], and regrouping the grid by product value
turns the same quantity into a multiplicity-weighted sum over k.  All
three routes are evaluated independently and compared; at s = 0 and
s = -1 every route is exact integer arithmetic and must agree exactly.

One kernel, _identity_routes, compares the three routes at one exponent
for any ascending set of table sizes, and both the single check and the
identities sweep call it.  The n-table is the (n-1)-table plus an
L-shaped border, so the grid and zeta routes are running sums of per-n
increments: the grid route evaluates each border cell once (n(n+1)/2
cells for every table up to n, in bands of _ROW_BLOCK table sizes) and
the zeta route each of 1..n once.  The running sums carry each step's
rounding error along (TwoSum), so every entry stays within a few ulps.
The multiplicity route weights each distinct product's power by its
multiplicity and sums over the table's distinct products, so a wrong
multiplicity shows as a failed identity.  The single check evaluates
the powers at its own table's products; the sweep evaluates them once
at the n_max-table's products, which hold every smaller table's, and
reads every n-table from the one builder in mtable.multiplicity, which
grows a table border by border.  At s = 0 and s = -1 the multiplicity
route weights each product by 1 and by itself, so the sweep takes it as
the table's two exact sums, n**2 and (n(n+1)/2)**2 when the table is
right, in the same pass.

The multiplicity route and the single-n sums, zeta_partial and
zeta_square_truncation, are accumulated by _fsum_blocks (numpy within a
block; math.fsum across block partials), which keeps them deterministic
and within a few ulps regardless of length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import BoundReport
from .divisors import divisor_window
from .multiplicity import _grown_tables, table_multiplicities
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

# Largest n_max verify_identities_sweep accepts (the reach of acceptance
# criterion 03).  It evaluates O(n_max**2) powers per exponent, but the
# multiplicity routes, the table sums among them, visit every table up
# to n_max, O(n_max**3) integer and float work: on 2 shared vCPUs it
# took 5 ms at 100 and 0.3 s at 500.  The table sums stay below 2**53
# up to this cap, so their complex128 copies are exact.
IDENTITY_SWEEP_N_MAX = 500
_IDENTITY_EXPONENTS = (0, -1, 2, 3, 2 + 3j)

# Largest truncation point zeta_square_truncation accepts.  It sums one
# window of _BLOCK values at a time, so memory stays at a few block-sized
# arrays (the process peaked at about 70 MB at 1e7) and the cap bounds
# time: the call took about 0.5 s at 1e7.
TRUNCATION_K_MAX = 10**7

_BLOCK = 1 << 20
_ROW_BLOCK = 128

# The float routes of the square identity differ by rounding only, and
# that rounding is bounded relative to S(n) = (sum of k**-Re(s) over
# k <= n)**2, the sum of |(a*b)**-s| over the n-table, which bounds the
# size of every route's sum.  A term x**-s = exp(-s ln x) with x <= n**2
# is within about 2u(|s| ln(n**2) + 1)|x**-s| of exact (ln x and its
# product with s are within a few u of exact, and exp turns that error
# of the exponent into a relative error of the term), u = 2**-53; the
# zeta route's terms have x <= n, and squaring doubles their relative
# error.  The sums add at most u S per term of a sequential run of
# numpy's reduceat (at most _ROW_BLOCK terms), per level of numpy's
# pairwise sums (of at most n**2 terms, in blocks of 128 that numpy
# adds 8 ways), and a few ulps for the compensated running sums.  A
# deviation between two routes is at most the sum of their errors, so
# it is within u S (_ROUNDING_C (|s| ln(n**2) + 1) + _ROW_BLOCK
# + 2 log2(n) + 16), _ROUNDING_C covering the factors of the terms.
_U = 2.0**-53
_ROUNDING_C = 16

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
    # math.fsum of the numpy sums of each array of terms in blocks, the
    # real and imaginary parts apart
    re_parts: list[float] = []
    im_parts: list[float] = []
    for terms in blocks:
        re_parts.append(float(terms.real.sum()))
        if np.iscomplexobj(terms):
            im_parts.append(float(terms.imag.sum()))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def _power_terms(base: np.ndarray, s: complex) -> np.ndarray:
    # base is a positive array, so ln is real and x**-s is exactly
    # exp(-s ln x) with no branch-cut choice to make; real exponents stay
    # on the real exp to skip the imaginary half.  exp writes over its
    # argument, which saves one array of the result's length.
    exponents = (-s.real if s.imag == 0.0 else -s) * np.log(base)
    return np.exp(exponents, out=exponents)


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


def _terms(k: np.ndarray, s: complex) -> np.ndarray:
    # k**-s at the positive int64 integers k: exact integers at s = 0 and
    # s = -1, floats elsewhere
    if s == 0:
        return np.ones_like(k)
    if s == -1:
        return k
    return _power_terms(k, s)


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    # the running sums of terms.  np.cumsum rounds at every step; TwoSum
    # recovers each step's rounding error exactly, and adding the running
    # sum of those errors back keeps every entry within a few ulps however
    # many terms precede it.  Integer terms carry no error.
    sums = np.cumsum(terms)
    before = np.concatenate((np.zeros(1, sums.dtype), sums[:-1]))
    added = sums - before
    errors = (before - (sums - added)) + (terms - added)
    return sums + np.cumsum(errors)


def _grid_route(s: complex, n_max: int) -> np.ndarray:
    # the grid sum of every n-table, n in [1, n_max].  The n-table is the
    # (n-1)-table plus its border: the cells (a, n) and (n, a) for a < n,
    # and (n, n).  Each band of _ROW_BLOCK table sizes n in [lo, hi]
    # evaluates its border cells a < lo as one block and its cells
    # lo <= a <= n row by row, so every cell's power is evaluated once,
    # on its own product.
    borders = []
    for lo, hi in _window_ranges(1, n_max, _ROW_BLOCK):
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        block = ns[:, None] * np.arange(1, lo, dtype=np.int64)[None, :]
        rows, cols = np.tril_indices(ns.size)
        weights = np.where(rows == cols, 1, 2)
        starts = np.flatnonzero(cols == 0)
        borders.append(
            2 * _terms(block, s).sum(axis=1)
            + np.add.reduceat(weights * _terms(ns[rows] * ns[cols], s), starts)
        )
    return _prefix_sums(np.concatenate(borders))


def _zeta_route(s: complex, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    # the partial zeta sum to every n in [1, n_max], and the partial sum
    # of the sizes |k**-s| of its terms (a bound's scale, so a plain
    # cumsum): at a real s the terms are positive, their own sizes
    terms = _terms(np.arange(1, n_max + 1, dtype=np.int64), s)
    sums = _prefix_sums(terms)
    return sums, sums if s.imag == 0 else np.cumsum(np.abs(terms))


def _multiplicity_route(weights: np.ndarray, powers: np.ndarray) -> complex:
    # sum of m(k) * k**-s over the distinct products k of one table, given
    # their multiplicities m(k) and their powers k**-s, both ascending in k
    terms = weights * powers
    return _fsum_blocks(
        terms[lo : hi + 1] for lo, hi in _window_ranges(0, terms.size - 1, _BLOCK)
    )


def _rounding_bound(s: complex, ns: np.ndarray) -> np.ndarray:
    # the bound on the deviation between two float routes at s, over
    # S(n), for each n of ns (see _ROUNDING_C)
    log_n2 = np.log(ns * ns)
    return _U * (
        _ROUNDING_C * (abs(s) * log_n2 + 1) + _ROW_BLOCK + log_n2 / math.log(2) + 16
    )


def _identity_routes(s: complex, ns: np.ndarray, mult) -> tuple:
    # the square identity at s for the n-tables, n in the ascending array
    # ns, whose multiplicity routes are mult: arrays of (grid sum, zeta
    # partial squared, multiplicity sum, largest pairwise deviation,
    # tolerance), entry i for the ns[i]-table.  The grid and zeta routes
    # run to ns[-1], and each entry depends on the tables up to its own n
    # only, so it is the same whatever other sizes the call asks for.
    grid = _grid_route(s, int(ns[-1]))[ns - 1].astype(np.complex128)
    zeta, sizes = (route[ns - 1] for route in _zeta_route(s, int(ns[-1])))
    zsq = (zeta * zeta).astype(np.complex128)
    mult = np.asarray(mult, dtype=np.complex128)
    deviation = np.maximum.reduce(
        [np.abs(grid - zsq), np.abs(grid - mult), np.abs(zsq - mult)]
    )
    if s in (0, -1):
        tolerance = np.zeros(ns.size)
    else:
        tolerance = np.maximum(
            1e-9 * np.abs(zsq), _rounding_bound(s, ns) * sizes * sizes
        )
    return grid, zsq, mult, deviation, tolerance


def _comparison(s: complex, n: int, routes, i: int) -> SeriesComparison:
    # entry i, the n-table's, of _identity_routes' arrays
    grid, zsq, mult, deviation, tolerance = (route[i] for route in routes)
    return SeriesComparison(
        s=s,
        n=n,
        grid_sum=complex(grid),
        zeta_partial_squared=complex(zsq),
        multiplicity_sum=complex(mult),
        max_abs_deviation=float(deviation),
        tolerance=float(tolerance),
        ok=bool(deviation <= tolerance),
    )


def verify_square_identity(s: complex, n: int) -> SeriesComparison:
    """Evaluate the grid sum, the squared partial zeta sum, and the
    multiplicity-weighted sum at the same (s, n) and report the largest
    pairwise deviation.

    At s = 0 and s = -1 all three routes are exact integers and the
    deviation must be exactly 0.  Elsewhere the routes agree to within
    the larger of 1e-9 relative of the squared partial sum and the
    rounding bound of the routes (see _ROUNDING_C), which grows with
    |s| ln(n**2) and with the size of the terms.  The comparison's
    tolerance and ok fields carry that rule.  An (s, n) at which that
    bound reaches S(n), the size the sums can have, leaves the sums no
    correct digit and is rejected before any sum is evaluated; one at
    which any of the three sums is not finite, as when its terms
    overflow a float, is rejected after.  Both are domain errors
    (ValueError), not failed identities.
    """
    if not 1 <= n <= IDENTITY_N_MAX:
        raise ValueError(f"n must be in [1, {IDENTITY_N_MAX}], got {n}")
    s = complex(s)
    if s not in (0, -1) and _rounding_bound(s, np.array([n]))[0] >= 1:
        raise ValueError(
            f"at s = {s}, n = {n} rounding can move the sums by as much as "
            f"the sizes of their terms add up to: |s| ln(n^2) is too large"
        )
    counts = table_multiplicities(n)
    products = np.flatnonzero(counts)
    weights = counts[products]
    del counts
    # sums that overflow are the domain error raised below, so numpy's
    # overflow and invalid-value warnings on the way there are noise
    with np.errstate(over="ignore", invalid="ignore"):
        mult = _multiplicity_route(weights, _terms(products, s))
        routes = _identity_routes(s, np.array([n]), [mult])
    cmp = _comparison(s, n, routes, 0)
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

    The multiplicity tables come from the one builder that grows a table
    border by border through every size.  At each n, one pass over the
    table's distinct products gives the two exact sums, which are also the
    multiplicity routes at s = 0 and s = -1, and the multiplicity route at
    each float exponent, whose powers are evaluated once at the
    n_max-table's distinct products.  Each exponent's grid and zeta routes
    at every n come from one pass, so each comparison is
    verify_square_identity(s, n)'s own.  n_max below 1 or above
    IDENTITY_SWEEP_N_MAX is rejected before any table runs.
    """
    if n_max < 1:
        raise ValueError(f"empty range [1, {n_max}]")
    if n_max > IDENTITY_SWEEP_N_MAX:
        raise ValueError(
            f"the identities sweep ends at most at n = {IDENTITY_SWEEP_N_MAX}, "
            f"got {n_max}"
        )
    exponents = [complex(s) for s in _IDENTITY_EXPONENTS]
    # every smaller table's products are among the n_max-table's, so each
    # float exponent's powers, indexed by product, serve every n
    products = np.flatnonzero(table_multiplicities(n_max))
    powers = []
    for s in exponents[2:]:
        powers.append(np.zeros(n_max * n_max + 1, complex if s.imag else float))
        powers[-1][products] = _power_terms(products, s)
    mult = np.zeros((len(exponents), n_max), dtype=np.complex128)
    for n, table in enumerate(_grown_tables(n_max), 1):
        # the n-table's distinct products, ascending (a bool array's
        # nonzero entries are listed several times faster than an int64's)
        present = np.flatnonzero(table > 0)
        weights = table[present]
        # at s = 0 and s = -1 each product weighs 1 and itself: those
        # multiplicity routes are the table's two exact sums
        mult[:2, n - 1] = weights.sum(), present @ weights
        for j, power in enumerate(powers, 2):
            mult[j, n - 1] = _multiplicity_route(weights, power[present])
    # one row (quantity, value, bound, flagged) per check, over every n
    ns = np.arange(1, n_max + 1)
    closed = (ns * ns, (ns * (ns + 1) // 2) ** 2)
    rows = [
        (quantity, got, want.astype(np.float64), got != want)
        for quantity, got, want in zip(("table_sum", "table_sum_weighted"), mult.real, closed)
    ]
    for s, label, route in zip(exponents, _IDENTITY_EXPONENTS, mult):
        *_, deviation, tolerance = _identity_routes(s, ns, route)
        rows.append((
            f"square_identity_s_{label}", deviation, tolerance, ~(deviation <= tolerance)
        ))
    # the flagged checks by n, and within one n in the order of rows
    reports = []
    for i, j in np.argwhere(np.array([row[3] for row in rows]).T).tolist():
        quantity, value, bound, _ = rows[j]
        reports.append(BoundReport(
            i + 1, quantity, float(value[i]), float(bound[i]),
            float(bound[i] - value[i]), violated=True, borderline=False,
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
