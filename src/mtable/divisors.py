"""Exact divisor arithmetic.

Single-value routines factorise k (trial division over a 2, 3, 6j +- 1
wheel for its small primes, Miller-Rabin and Pollard-Brent rho for the
rest) and build its divisors from the prime powers; the ranged routine
sieves d(m) or sigma(m) for every m in a window [lo, hi] in one pass, so
long ranges are swept window by window.  The incomplete divisor count
d(k; x) restricts to divisors <= x, and its integral over [1, k] has the
closed form k*d(k) - sigma(k).  record_maxima gives the largest d(m)
and sigma(m)/m over m <= x from a frozen table of the 179 points below
2**63 where either running maximum rises, without factorising or
sieving anything.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
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


# m, D, A numerator and A denominator at every m < 2**63 where the
# running maximum D of d(m) or A of sigma(m)/m over [1, m] rises, m
# ascending, A in lowest terms.  tests/oracles.py record_steps
# regenerates these rows from the candidates whose exponents do not
# increase over the primes, and the tests check them against it and
# against the sieve.  The rows are text, split once at import: as 716
# integer literals they would take about a millisecond more to compile
# whenever divisors.py is imported without a bytecode cache.
_RECORDS = tuple(
    tuple(map(int, row.split()))
    for row in """
                      1       1            1           1
                      2       2            3           2
                      4       3            7           4
                      6       4            2           1
                     12       6            7           3
                     24       8            5           2
                     36       9           91          36
                     48      10           31          12
                     60      12           14           5
                    120      16            3           1
                    180      18           91          30
                    240      20           31          10
                    360      24           13           4
                    720      30          403         120
                    840      32           24           7
                   1260      36           52          15
                   1680      40          124          35
                   2520      48           26           7
                   5040      60          403         105
                   7560      64          403         105
                  10080      72           39          10
                  15120      80          248          63
                  20160      84          248          63
                  25200      90        12493        3150
                  27720      96          312          77
                  45360     100          312          77
                  50400     108          312          77
                  55440     120         1612         385
                  83160     128         1612         385
                 110880     144          234          55
                 166320     160          992         231
                 221760     168          992         231
                 277200     180        24986        5775
                 332640     192           48          11
                 498960     200           48          11
                 554400     216         1209         275
                 665280     224         1016         231
                 720720     240          248          55
                1081080     256          248          55
                1441440     288          252          55
                2162160     320         1984         429
                2882880     336         1984         429
                3603600     360         3844         825
                4324320     384          672         143
                6486480     400          672         143
                7207200     432         1302         275
                8648640     448         2032         429
               10810800     480        30752        6435
               14414400     504        30752        6435
               17297280     512        30752        6435
               21621600     576         3472         715
               32432400     600         3472         715
               36756720     640        11904        2431
               43243200     672        11904        2431
               61261200     720        23064        4675
               73513440     768        12096        2431
              110270160     800        12096        2431
              122522400     864        23436        4675
              147026880     896        12192        2431
              183783600     960        61504       12155
              245044800    1008        61504       12155
              294053760    1024        61504       12155
              367567200    1152        62496       12155
              551350800    1200        62496       12155
              698377680    1280       238080       46189
              735134400    1344        62992       12155
             1102701600    1440        28644        5525
             1163962800    1440        92256       17765
             1396755360    1536       241920       46189
             2095133040    1600       241920       46189
             2205403200    1680       241920       46189
             2327925600    1728        93744       17765
             2793510720    1792       243840       46189
             3491888400    1920       246016       46189
             4655851200    2016       246016       46189
             5587021440    2048       246016       46189
             6983776800    2304       249984       46189
            10475665200    2400       249984       46189
            13967553600    2688       251968       46189
            20951330400    2880       114576       20995
            27935107200    3072        14880        2717
            41902660800    3360       346456       62985
            48886437600    3456        13392        2431
            64250746560    3584        13392        2431
            73329656400    3600        13392        2431
            80313433200    3840      5904384     1062347
            97772875200    4032      5904384     1062347
           128501493120    4096      5904384     1062347
           146659312800    4320      5904384     1062347
           160626866400    4608      5999616     1062347
           240940299600    4800      5999616     1062347
           293318625600    5040      5999616     1062347
           321253732800    5376      6047232     1062347
           481880599200    5760      2749824      482885
           642507465600    6144       357120       62491
           963761198400    6720      2771648      482885
          1124388064800    6912       321408       55913
          1606268664000    7168       321408       55913
          1686582097200    7200       321408       55913
          1927522396800    7680        32736        5681
          2248776129600    8064      2267712      391391
          3212537328000    8192      2267712      391391
          3373164194400    8640       147312       25415
          4497552259200    9216       133920       23023
          4658179125600    9216    179988480    30808063
          6746328388800   10080      1039368      177905
          8995104518400   10368      1039368      177905
          9316358251200   10752    181416960    30808063
         13492656777600   11520    181416960    30808063
         13974537376800   11520     16498944     2800733
         18632716502400   12288     10713600     1812239
         26985313555200   12960     10713600     1812239
         27949074753600   13440     16629888     2800733
         32607253879200   13824      9642240     1621477
         46581791256000   14336      9642240     1621477
         48910880818800   14400      9642240     1621477
         55898149507200   15360       982080      164749
         65214507758400   16128     68031360    11350339
         93163582512000   16384     68031360    11350339
         97821761637600   17280       883872      147407
        130429015516800   18432      4017600      667667
        144403552893600   18432    185794560    30808063
        195643523275200   20160      6236208     1031849
        260858031033600   20736      6236208     1031849
        288807105787200   21504    187269120    30808063
        391287046550400   23040    187269120    30808063
        433210658680800   23040     17031168     2800733
        577614211574400   24576     11059200     1812239
        782574093100800   25920     11059200     1812239
        866421317361600   26880     17166336     2800733
       1010824870255200   27648      9953280     1621477
       1444035528936000   28672      9953280     1621477
       1516237305382800   28800      9953280     1621477
       1732842634723200   30720      1013760      164749
       2021649740510400   32256     70225920    11350339
       2888071057872000   32768     70225920    11350339
       3032474610765600   34560       912384      147407
       4043299481020800   36864      4147200      667667
       6064949221531200   40320      6437376     1031849
       8086598962041600   41472      6437376     1031849
      10108248702552000   43008      6437376     1031849
      10685862914126400   43008    374538240    59994649
      12129898443062400   46080       380160       60697
      18194847664593600   48384       380160       60697
      20216497405104000   49152       380160       60697
      21371725828252800   49152     22118400     3529097
      24259796886124800   51840       925056      147407
      30324746107656000   53760     77248512    12302815
      32057588742379200   53760     34332672     5454059
      36389695329187200   55296     34332672     5454059
      37400520199442400   55296    378224640    59994649
      48519593772249600   57600    378224640    59994649
      60649492215312000   61440    378224640    59994649
      64115177484758400   61440      2027520      320827
      72779390658374400   62208      2027520      320827
      74801040398884800   64512   2668584960   419962543
     106858629141264000   65536   2668584960   419962543
     112201560598327200   69120     34670592     5454059
     149602080797769600   73728    157593600    24703679
     224403121196654400   80640    244620288    38178413
     299204161595539200   82944    244620288    38178413
     374005201994424000   86016    244620288    38178413
     448806242393308800   92160     14446080     2245789
     673209363589963200   96768     14446080     2245789
     748010403988848000   98304     14446080     2245789
     897612484786617600  103680     35152128     5454059
    1122015605983272000  107520   2935443456   455204155
    1346418727179926400  110592      1751040      271469
    1533421328177138400  110592  15885434880  2459780609
    1795224969573235200  115200  15885434880  2459780609
    2244031211966544000  122880     34670592     5355343
    2692837454359852800  124416     34670592     5355343
    3066842656354276800  129024  16011509760  2459780609
    4381203794791824000  131072  16011509760  2459780609
    4488062423933088000  138240  16011509760  2459780609
    4600263984531415200  138240   1456164864   223616419
    6133685312708553600  147456    945561600   144692977
    8976124847866176000  153600    945561600   144692977
    9200527969062830400  161280   1467721728   223616419
""".strip().splitlines()
)


def record_maxima(x: int) -> tuple[int, Fraction]:
    """(max d(m), max sigma(m)/m) over 1 <= m <= x, exact, for x in
    [1, 2**63 - 1]: the row of _RECORDS at the last step at or below x."""
    if not 1 <= x <= MAX_K:
        raise ValueError(f"x must be in [1, 2**63 - 1], got {x}")
    _, most_d, num, den = _RECORDS[bisect_right(_RECORDS, x, key=itemgetter(0)) - 1]
    return most_d, Fraction(num, den)
