"""Reference routes the library's production code is tested against.

Each one computes a library quantity a second, independent way, and is
kept here because nothing outside the tests needs it.
"""

import numpy as np

from mtable import series
from mtable.divisors import divisor_list, divisor_window
from mtable.multiplicity import multiplicity_direct


def product_bitmap(n: int) -> np.ndarray:
    """Entry k is True iff k is a product of the n-table, for k in [0, n*n].

    Only the upper triangle a <= b is visited: row a marks a*a, a*(a+1),
    ..., a*n, one strided write per row.  The bitmap takes n*n + 1 bytes,
    64 MiB at n = 8192.
    """
    seen = np.zeros(n * n + 1, dtype=bool)
    for a in range(1, n + 1):
        seen[a * a : a * n + 1 : a] = True
    return seen


def count_distinct_dense(n: int) -> int:
    """M(n) by marking every product in one bitmap."""
    return int(np.count_nonzero(product_bitmap(n)))


def divisor_step_integral(k: int) -> int:
    """Integral of d(k; x) over x in [1, k] as the area under its step
    function: between the i-th and (i+1)-th divisor d(k; x) equals i."""
    divs = divisor_list(k)
    return sum((divs[i + 1] - divs[i]) * (i + 1) for i in range(len(divs) - 1))


def multiplicity_at_k_and_next(k: int) -> tuple[int, int]:
    """The multiplicity of k in the k-table and in the (k+1)-table, by
    direct enumeration.  From n = k on every divisor pair of k fits, so
    both equal d(k)."""
    return multiplicity_direct(k, k), multiplicity_direct(k + 1, k)


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
