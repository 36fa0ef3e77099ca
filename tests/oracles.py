"""Reference routes the library's production code is tested against.

Each one computes a library quantity a second, independent way, and is
kept here because nothing outside the tests needs it.  One more,
grown_with_extra_count, builds deliberately wrong multiplicity tables
for the tests that check a wrong table is reported.
"""

import math
from fractions import Fraction

import numpy as np

from mtable import bounds, multiplicity, series
from mtable.bounds import BoundReport
from mtable.divisors import divisor_list, divisor_window
from mtable.multiplicity import multiplicity_direct, table_multiplicities


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


def prefix_counts(n_max: int) -> np.ndarray:
    """M(n) for every n in [0, n_max] (int64, M(0) = 0), in one pass.

    The n-table is the (n-1)-table plus the row n*1, ..., n*n, so M(n) is
    M(n-1) plus the number of products in that row not seen before (the
    incremental count of Brent, Pomerance, Purdum and Webster,
    arXiv:1908.04251).  One bitmap over [0, n_max^2] remembers every
    product seen so far, 64 MiB at n_max = 8192; each row costs one
    strided read and one strided write.
    """
    seen = np.zeros(n_max * n_max + 1, dtype=bool)
    counts = np.zeros(n_max + 1, dtype=np.int64)
    for n in range(1, n_max + 1):
        row = seen[n : n * n + 1 : n]
        counts[n] = counts[n - 1] + row.size - np.count_nonzero(row)
        row[:] = True
    return counts


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


def table_sum_checks(n: int) -> tuple[int, int]:
    """(sum of k * multiplicity, sum of multiplicities) over the n-table.

    Both sums are taken exactly over table_multiplicities(n) and should
    equal (n*(n+1)/2)^2 and n^2 respectively; callers compare against
    those closed forms.  n is limited to TABLE_N_MAX, where the weighted
    sum is still far inside int64.
    """
    counts = table_multiplicities(n)
    return int(np.arange(counts.size, dtype=np.int64) @ counts), int(counts.sum())


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


def grown_with_extra_count(k: int, at_n: int | None = None):
    """multiplicity._grown_tables with the multiplicity of k one too high
    in the at_n-table, or in every table when at_n is None: a wrong table
    for the fault-injection tests to feed the sweep through the builder."""
    grown_tables = multiplicity._grown_tables

    def grown(n_max):
        for n, table in enumerate(grown_tables(n_max), 1):
            if at_n in (None, n):
                table = table.copy()
                table[k] += 1
            yield table

    return grown


def zeta_square_truncation_partial(s: float, k_max: int) -> float:
    """The d(k)-weighted sum of k**-s over [1, k_max], from whole-length
    arrays: d over [0, k_max], the arguments and their power terms, whose
    numpy sums over each series._BLOCK terms are added by math.fsum."""
    d = divisor_window(0, k_max, "d")
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    terms = d[1:].astype(np.float64) * series._power_terms(ks, complex(s))
    return math.fsum(
        float(terms[lo : lo + series._BLOCK].sum())
        for lo in range(0, terms.size, series._BLOCK)
    )


def trial_prime_powers(k: int) -> list[tuple[int, int]]:
    """(p, e) for every prime power p**e exactly dividing k, p ascending,
    by trial division with every integer up to the square root of the
    shrinking cofactor."""
    factors = []
    m, p = k, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return factors


def record_steps(bits: int) -> list[tuple[int, int, Fraction]]:
    """(m, D, A) at every m < 2**bits, ascending, at which the running
    maximum D of d(m) or A of sigma(m)/m over [1, m] rises, with both
    running maxima there.

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
    for p in range(2, 1 << 10):
        if all(p % q for q in primes):
            if primorial * p > limit:
                break
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
    steps = []
    most_d, most_sigma, at = 0, 0, 1
    for m, d, sigma in sorted(candidates):
        # sigma/m against most_sigma/at, exactly
        ratio_rises = sigma * at > most_sigma * m
        if d > most_d or ratio_rises:
            most_d = max(most_d, d)
            if ratio_rises:
                most_sigma, at = sigma, m
            steps.append((m, most_d, Fraction(most_sigma, at)))
    return steps


def scalar_theorem_sweep(counts: np.ndarray) -> list[BoundReport]:
    """verify_theorem_sweep's reports from verify_theorem_lower_bound run
    at every n in [2, len(counts) - 1], where counts[n] is M(n)."""
    reports = []
    for n in range(2, counts.size):
        r = bounds.verify_theorem_lower_bound(n, int(counts[n]))
        if r.violated or r.borderline:
            reports.append(r)
    return reports


def square_identity_sums(s: complex, n: int) -> tuple[complex, complex]:
    """(the grid sum of (a*b)**-s over a, b in [1, n], the sum of
    m(k) * k**-s over the products k of table_multiplicities(n)), each
    term a Python power, exact integers at s = 0 and s = -1, and each
    sum's real and imaginary parts added apart by math.fsum."""
    s = complex(s)

    def power(k: int):
        return k ** int(-s.real) if s in (0, -1) else complex(k) ** -s

    def fsum(terms) -> complex:
        terms = [complex(t) for t in terms]
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))

    counts = table_multiplicities(n)
    grid = fsum(power(a * b) for a in range(1, n + 1) for b in range(1, n + 1))
    mult = fsum(int(counts[k]) * power(k) for k in np.flatnonzero(counts).tolist())
    return grid, mult


def per_call_identities_sweep(
    n_max: int,
) -> tuple[list[BoundReport], list[series.SeriesComparison]]:
    """(verify_identities_sweep's reports, the comparisons they rest on)
    from table_sum_checks(n) and one verify_square_identity call per
    (n, s), each building its own table."""
    reports, comparisons = [], []
    for n in range(1, n_max + 1):
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
        for s in (0, -1, 2, 3, 2 + 3j):
            cmp = series.verify_square_identity(s, n)
            comparisons.append(cmp)
            if not cmp.ok:
                dev, tol = cmp.max_abs_deviation, cmp.tolerance
                reports.append(BoundReport(
                    n, f"square_identity_s_{s}", dev, tol, tol - dev,
                    violated=True, borderline=False,
                ))
    return reports, comparisons
