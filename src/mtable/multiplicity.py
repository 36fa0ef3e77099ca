"""Multiplicity of products in an n-by-n multiplication table.

The multiplicity of k in the n-table is the number of ordered pairs
(a, b) with 1 <= a, b <= n and a*b = k.  Two independent routes compute
it: direct enumeration over the divisors of k, and a closed form built
from incomplete divisor counts plus a boundary indicator.  The closed
form is only valid inside the table (k <= n*n) and is rejected outside
that domain.

Whole-table arrays hold the multiplicity of every k in [0, n*n].  One
builder grows them: the n-table is the (n-1)-table plus an L-shaped
border, so one array passes through every table size, and both
table_multiplicities and the identities sweep of mtable.series read
their tables from it.
"""

from __future__ import annotations

import numpy as np

from .divisors import _divisor_tuple, incomplete_divisor_count

__all__ = [
    "multiplicity_direct",
    "multiplicity_formula",
    "boundary_indicator",
    "table_multiplicities",
]

# Full-table arrays hold n*n + 1 int64 entries; 4096 keeps that under 135 MB.
TABLE_N_MAX = 4096


def _check_args(n: int, k: int):
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


def multiplicity_direct(n: int, k: int) -> int:
    """Number of ordered pairs (a, b) in [1, n]^2 with a*b = k.

    Counts divisors a of k whose cofactor k/a also lies in [1, n]; this
    is the enumeration route the closed form is tested against.
    """
    _check_args(n, k)
    return sum(1 for a in _divisor_tuple(k) if a <= n and k // a <= n)


def boundary_indicator(n: int, k: int) -> int:
    """1 if n divides k, else 0: the floor difference
    floor(k/n) - floor((k-1)/n)."""
    _check_args(n, k)
    return k // n - (k - 1) // n


def multiplicity_formula(n: int, k: int) -> int:
    """Closed-form multiplicity d(k; n) - d(k; k/n) + [n | k], for k <= n*n.

    The subtracted term is evaluated with the exact integer test a*n <= k
    rather than a float division, so no divisor is misclassified at the
    k/n boundary.  Outside the table the identity does not hold (at n=2,
    k=12 it would give -2 instead of 0), hence the domain check.
    """
    _check_args(n, k)
    if k > n * n:
        raise ValueError(
            f"multiplicity_formula requires k <= n*n, got n={n}, k={k}"
        )
    within = incomplete_divisor_count(k, n)
    below_quotient = sum(1 for a in _divisor_tuple(k) if a * n <= k)
    return within - below_quotient + boundary_indicator(n, k)


def _check_table_n(n: int):
    if not 1 <= n <= TABLE_N_MAX:
        raise ValueError(f"n must be in [1, {TABLE_N_MAX}], got {n}")


def _grown_tables(n_max: int):
    # the multiplicities of every k in [0, n*n], n in [1, n_max], as views
    # of one array that grows by each n-table's border: the products n*a
    # and a*n for a < n, and n*n.  Each step writes into the views already
    # yielded, so a caller that keeps one copies it.
    grown = np.zeros(n_max * n_max + 1, dtype=np.int64)
    for n in range(1, n_max + 1):
        grown[n : n * (n - 1) + 1 : n] += 2
        grown[n * n] += 1
        yield grown[: n * n + 1]


def table_multiplicities(n: int) -> np.ndarray:
    """Multiplicities of every k in [0, n*n], grown border by border
    through every smaller table; entry 0 is always 0."""
    _check_table_n(n)
    *_, counts = _grown_tables(n)
    return counts

