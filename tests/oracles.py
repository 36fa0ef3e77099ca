"""Reference routes the library's production code is tested against.

Each one computes a library quantity a second, independent way, and is
kept here because nothing outside the tests needs it.
"""

import numpy as np

from mtable import series
from mtable.divisors import divisor_window


def count_distinct_dense(n: int) -> int:
    """M(n) by marking every product in one bitmap.

    Only the upper triangle a <= b is visited: row a marks a*a, a*(a+1),
    ..., a*n, one strided write per row.  The bitmap takes n*n + 1 bytes,
    64 MiB at n = 8192.
    """
    seen = np.zeros(n * n + 1, dtype=bool)
    for a in range(1, n + 1):
        seen[a * a : a * n + 1 : a] = True
    return int(np.count_nonzero(seen))


def table_multiplicities_formula(n: int) -> np.ndarray:
    """Same table as table_multiplicities, via the closed form.

    For each a <= n: +1 at every multiple of a (the d(k; n) term), -1 at
    multiples of a that are >= a*n (the d(k; k/n) term, using the exact
    a*n <= k test), and +1 at multiples of n (the boundary indicator).
    All three passes are integer strided writes, so the result is exact.
    """
    top = n * n
    counts = np.zeros(top + 1, dtype=np.int64)
    for a in range(1, n + 1):
        counts[a :: a] += 1
        counts[a * n :: a] -= 1
    counts[n :: n] += 1
    return counts


def zeta_square_truncation_partial(s: float, k_max: int) -> float:
    """The d(k)-weighted sum of k**-s over [1, k_max], from whole-length
    arrays: d over [0, k_max], the arguments and their power terms."""
    d = divisor_window(0, k_max, "d")
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    terms = d[1:].astype(np.float64) * series._power_terms(ks, complex(s))
    return series._compensated_sum(terms)
