"""Explicit upper bounds for d(n) and sigma(n), and checks built on them.

Two classical effective bounds are implemented with fixed constants:

    nicolas_bound(n) = n ** ((ln 2 / ln ln n) * (1 + c / ln ln n)),
        c = 387/200, an upper bound for the divisor count d(n), n >= 3;
    robin_bound(n)   = e**gamma * n * ln ln n + c * n / ln ln n,
        c = 3241/5000, compared against sigma(n), n >= 3.

Each bound has one evaluation, the numpy kernel the sweeps run over
whole windows; nicolas_bound and robin_bound apply it to one np.float64.
That this gives the bits of the same argument's element in an array is
a property of the installed numpy (which may pick its exp and log loops
by stride), checked by test_scalar_bounds_are_the_array_evaluation, not
a guarantee.  Each check has one array kernel that returns its bounds,
margins and verdicts: _upper for value <= bound (the d and sigma
bounds), _bracket for the integral bracket, and _theorem for the
theorem's one inequality, M(n) >= n**2 / N(n**2), whose floors
n**2 / N(n**2) come from _theorem_floors.  A sweep applies its
kernel to a window of arguments at once; the scalar checks
(divisor_bound_at, sigma_bound_at, verify_integral_bracket,
verify_theorem_lower_bound) apply it to a one-entry array.  One
builder, _reports, makes the BoundReports, plain values with no
constants, of a sweep's flagged entries and a scalar check's.
Every verdict comes from one rule, _classify_upper or _classify_lower,
applied to an array of margins: a comparison only counts as a
violation when it fails by more than a relative slack of 1e-12;
anything inside the band is flagged borderline instead, so float
rounding can never manufacture or hide a violation.  A bound that is
not finite gets no slack: +inf holds for every value and -inf fails it.
The d, sigma and bracket sweeps run through one driver, _records_sweep,
which holds one or two bounds against the record maxima of d(m) and
sigma(m)/m (divisors.record_maxima, after Ramanujan and Alaoglu and
Erdos) and runs one check over each window it sieves.  It walks the
range (_walk) through the arguments below the bounds' rising point,
then doubling spans [x, 2x - 1].  With L = ln ln n, the d bound rises
past the larger root of L**2 + (c - 1) * L - 2 * c (n > 113.6 for
c = 387/200), and the sigma bound divided by n rises where
L**2 > c / e**gamma (everywhere for c <= 0).  Past that point the bound
at a span's first argument (times n / that argument for sigma) is a
floor for the whole span.  One clearance rule, _records_clear, decides
whether a span is skipped: the d record D, or the sigma(m)/m record
times n, over m <= the span's end, each raised by a slack times D per
unit of n, lies below its floor at both ends, compared exactly as
rationals, and so below that affine floor throughout.  The raise is 0
for the d and sigma sweeps and RELATIVE_SLACK * D for the bracket,
which is the two bounds held at once.  At the default constants every
span clears, for sweeps up to SWEEP_MAX, so the d sweep and the
bracket sieve only [3, 113] and the sigma sweep [3, 27].  The
arguments before the rising point and a span that is not skipped are
sieved and checked one window of at most SWEEP_WINDOW arguments at a
time, so peak memory does not depend on the range.  The d and sigma
sweeps evaluate their bound past the rising point only at the
arguments whose value reaches the window's floor less SCREEN_BAND of
the bound's terms (the floor is -inf where the bound nears overflow).
That band is many times the slack plus the float error of the bound, so
an argument left out cannot be flagged, and the reports are the same
floats as those of evaluating every argument.
The monotonicity and floor checks of the d bound, nicolas_shape_check,
walk [3, hi] with _walk too: they evaluate the bound at every argument
up to 113, and at the two ends of each span only.  In between, the float
bound provably rises: the real bound's relative step from n to n + 1
has a lower bound from its derivative in ln n, and on every span up to
SWEEP_MAX that step exceeds three times a stated error bound of the
float evaluation (see _nicolas_shape); a span where it would not is
evaluated at every argument.
The theorem sweep runs its kernel over every n at once, and counts M(n)
only at the n whose verdict a smaller table's count cannot settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .divisors import (
    divisor_count, divisor_sum, divisor_window, incomplete_divisor_integral,
    record_maxima,
)
from .products import _require_count_n, _window_ranges, count_distinct_segmented

__all__ = [
    "BoundReport",
    "nicolas_bound",
    "robin_bound",
    "verify_divisor_bound",
    "verify_sigma_bound",
    "divisor_bound_at",
    "sigma_bound_at",
    "verify_integral_bracket",
    "verify_bracket_sweep",
    "verify_theorem_lower_bound",
    "verify_theorem_sweep",
    "nicolas_shape_check",
    "reference_densities",
]

NICOLAS_C = Fraction(387, 200)
ROBIN_C = Fraction(3241, 5000)
# Alternate constant seen in the literature for the sigma bound; with it
# the n = 12 near-miss lands on the other side of the bound.
ROBIN_C_ALTERNATE = Fraction(6483, 10000)

# Euler-Mascheroni constant, fixed at 10 significant digits so every
# build produces identical binary64 results.
EULER_GAMMA = 0.5772156649

RELATIVE_SLACK = 1e-12

# Most arguments the sweeps sieve or evaluate at once, in a span the
# records do not clear; chosen by timing 2**18, 2**19 and 2**20 on sweeps
# to 1e7 and 1e8 that sieve every window: narrower windows repeat the
# sieve's loop over i <= sqrt(hi) more often, wider ones fall out of cache.
SWEEP_WINDOW = 1 << 19

# Relative band of the floors that let the d and sigma sweeps skip
# arguments: they evaluate their bound only at arguments whose value
# comes within this share of the terms of a floor the real, monotone
# bound cannot go below (see _records_sweep).  A band of 1e-9
# covers the float bound's few ulps of error against the real one plus
# RELATIVE_SLACK many times over.
SCREEN_BAND = 1e-9

# Largest upper end the sweeps accept.  Memory stays at one window, but
# time grows slightly faster than the range (see README).
SWEEP_MAX = 10**9

# nicolas_shape_check's claims: the d bound decreases into SHAPE_START,
# rises after it, and stays above SHAPE_FLOOR (it is 114.1097 at 114).
SHAPE_START = 114
SHAPE_FLOOR = 114.1

_LN2 = math.log(2)

# Exponent used by the reference density curves below, together with the
# value more commonly quoted for the same asymptotic; they differ, so
# both are exposed and the curves are descriptive only.
ERDOS_EXPONENT = 1 + math.log(_LN2) / _LN2
ERDOS_EXPONENT_COMMON = 1 - (1 + math.log(_LN2)) / _LN2


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound comparison.

    value is the exact integer side of the inequality; bound is the
    binary64 side (a pair for brackets, where margin is instead the
    distance from value to the nearest edge, positive inside).  For
    single bounds margin = bound - value, so its healthy sign depends on
    the direction of the inequality: positive for upper bounds
    (divisor_count, divisor_sum), negative for the lower bound on the
    distinct count (table_count).  violated is True only when
    the failure exceeds the relative slack; borderline marks any
    comparison inside the slack band.  Its fields are plain, so it hashes.
    """

    argument: int
    quantity: str
    value: int | float
    bound: float | tuple[float, float]
    margin: float
    violated: bool
    borderline: bool


def _slack(scale: np.ndarray) -> np.ndarray:
    # RELATIVE_SLACK of |scale|, at least of 1; a non-finite scale gets
    # none, so a bound of +inf is clean and one of -inf violated.  Zeroing
    # in place saves the sweeps a window-sized copy
    slack = RELATIVE_SLACK * np.maximum(abs(scale), 1.0)
    slack[~np.isfinite(slack)] = 0.0
    return slack


# The two verdict rules, (violated, borderline), for an array of margins.


def _classify_upper(margin, scale):
    # value must stay at or below bound: healthy margin is positive, and
    # a miss beyond the slack is a violation
    slack = _slack(scale)
    borderline = abs(margin) <= slack
    return (margin < 0) & ~borderline, borderline


def _classify_lower(margin, scale):
    # value >= bound: healthy margin is negative, its negation an upper one
    return _classify_upper(-margin, scale)


def _require_n(n: int, least: int):
    if n < least:
        raise ValueError(f"n must be >= {least}, got {n}")


def _require_sweep(lo: int, hi: int, least: int):
    _require_n(lo, least)
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if hi > SWEEP_MAX:
        raise ValueError(f"sweeps end at most at {SWEEP_MAX}, got {hi}")


def _arguments(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi + 1, dtype=np.float64)


def nicolas_bound(n: int, c: Fraction | float = NICOLAS_C) -> float:
    """Upper bound for d(n), valid for n >= 3: the sweeps' evaluation at
    one argument."""
    _require_n(n, 3)
    return float(_nicolas_values(np.float64(n), float(c)))


def robin_bound(n: int, c: Fraction | float = ROBIN_C) -> float:
    """Upper bound compared against sigma(n), for n >= 3: the sweeps'
    evaluation at one argument."""
    _require_n(n, 3)
    return float(_robin_values(np.float64(n), float(c)))


# The one evaluation of each bound, for an array of arguments or one
# np.float64; either way each argument gets the same float.


def _nicolas_values(ns: np.ndarray, c: float) -> np.ndarray:
    logs = np.log(ns)
    loglogs = np.log(logs)
    return np.exp(logs * (_LN2 / loglogs) * (1.0 + c / loglogs))


def _robin_values(ns: np.ndarray, c: float) -> np.ndarray:
    loglogs = np.log(np.log(ns))
    return math.exp(EULER_GAMMA) * ns * loglogs + c * ns / loglogs


# The kernels of the three checks.  Each takes arrays with one entry per
# argument, a sweep's window or a scalar check's one argument (_one), and
# returns (bounds, margins, violated, borderline), what _reports reads;
# _theorem takes the floors of its arguments, which depend on them alone.


def _one(x) -> np.ndarray:
    # float() rounds an integer past 2**53 to nearest, as the sweeps'
    # int64 to float64 conversion does
    return np.array([float(x)])


def _upper(values, bounds):
    # value <= bound: the d and sigma bounds
    margins = bounds - values
    return (bounds, margins, *_classify_upper(margins, bounds))


def _bracket(ks, middles, robin_c: float, nicolas_c: float):
    # 2k - R(k) < middle < k N(k) - k - 1, for middle = k d(k) - sigma(k)
    # (float, or int64 that numpy converts): the bounds are the pair
    # (lowers, uppers), the margin the distance to the nearer edge,
    # positive inside as for an upper bound
    lowers = 2.0 * ks - _robin_values(ks, robin_c)
    uppers = ks * _nicolas_values(ks, nicolas_c) - ks - 1.0
    margins = middles - lowers
    np.minimum(margins, uppers - middles, out=margins)
    return ((lowers, uppers), margins, *_classify_upper(margins, middles))


def _theorem_floors(squares):
    # the floors n**2 / N(n**2) of M(n), N at NICOLAS_C, which depend on n
    # alone; the chain step max(12, N) = N of the theorem is checked at
    # every n, and a NaN fails it
    caps = _nicolas_values(squares, float(NICOLAS_C))
    below = np.flatnonzero(~(caps >= 12.0))
    if below.size:
        i = below[0]
        raise RuntimeError(
            f"nicolas_bound({int(squares[i])}) = {float(caps[i])} fell below 12"
        )
    return squares / caps


def _theorem(floors, counts):
    # M(n) >= n**2 / N(n**2), the floors from _theorem_floors
    margins = floors - counts
    return floors, margins, *_classify_lower(margins, floors)


def _reports(quantity, arguments, values, checked, every=False) -> list:
    """The BoundReport of each flagged entry of a kernel's checked
    arrays, or of every entry when every, in order.  arguments and values
    are read with int(), so they must hold the exact integers: a scalar
    check passes lists of ints, which may pass 2**53 and int64."""
    bounds, margins, violated, borderline = checked
    at = range(len(margins)) if every else np.flatnonzero(violated | borderline)
    return [
        BoundReport(
            argument=int(arguments[i]),
            quantity=quantity,
            value=int(values[i]),
            bound=(
                tuple(float(b[i]) for b in bounds)
                if isinstance(bounds, tuple)
                else float(bounds[i])
            ),
            margin=float(margins[i]),
            violated=bool(violated[i]),
            borderline=bool(borderline[i]),
        )
        for i in at
    ]


def _past_loglog(loglog: float) -> float:
    # the x with ln ln x = loglog (e when loglog <= 0), raised by a
    # relative 1e-9 of loglog against the float error of the root
    loglog = max(loglog, 0.0) * (1.0 + 1e-9)
    return math.exp(math.exp(loglog)) if loglog < 6.5 else math.inf


def _nicolas_rising_from(c: float) -> float:
    """An x past which nicolas_bound(., c) does not decrease.

    With L = ln ln x the bound's exponent ln 2 * ln x * (L + c) / L**2 has
    derivative ln 2 * (L**2 + (c - 1) * L - 2 * c) / L**3 in ln x
    (Nicolas and Robin, Canad. Math. Bull. 26, 1983), so the bound rises
    past the larger root of that quadratic, and for every L > 0 when it
    has no real root.  For c <= -3 - 2*sqrt(2) both roots are positive
    and the bound also rises below the smaller one; the larger root is
    the conservative choice.  About 113.6 for c = 387/200.
    """
    # the discriminant (c - 1)**2 + 8c is (c + 3)**2 - 8
    shifted = abs(c + 3.0)
    if shifted < math.sqrt(8.0):
        return _past_loglog(0.0)
    root_disc = shifted * math.sqrt(1.0 - 8.0 / shifted / shifted)
    # the larger root, in the form without cancellation for either sign
    # of c - 1
    b = c - 1.0
    root = (root_disc - b) / 2.0 if b <= 0.0 else 4.0 * c / (b + root_disc)
    return _past_loglog(root)


def _robin_rising_from(c: float) -> float:
    """An x past which robin_bound(., c) / x does not decrease: with
    L = ln ln x that ratio is e**gamma * L + c / L, which rises where
    L**2 > c / e**gamma, so for every L > 0 when c <= 0."""
    return _past_loglog(math.sqrt(max(c, 0.0) / math.exp(EULER_GAMMA)))


def _nicolas_floor(lo: int, hi: int, c: float, at_lo: float) -> tuple[float, float]:
    # the bound does not decrease on [lo, hi]: nothing there is below
    # its value at lo; its one term is that value
    return 0.0, at_lo - SCREEN_BAND * (abs(at_lo) + 1.0)


def _robin_floor(lo: int, hi: int, c: float, at_lo: float) -> tuple[float, float]:
    # bound / n does not decrease on [lo, hi]: the bound at n is at least
    # n * at_lo / lo, and its terms add up to at most n times per_n
    per_n = math.exp(EULER_GAMMA) * math.log(math.log(hi)) + abs(c) / math.log(
        math.log(lo)
    )
    return at_lo / lo - SCREEN_BAND * per_n, -SCREEN_BAND


def _at_or_above(
    values: np.ndarray, first: int, slope: float, const: float
) -> tuple[np.ndarray, np.ndarray]:
    # (arguments as floats, values) of the entries at or above the floor
    # slope * n + const, where values[j] belongs to the argument n = first + j;
    # an unbounded floor keeps values itself, not a copy
    if const == -math.inf:
        return _arguments(first, first + len(values) - 1), values
    floor = const
    if slope:
        floor = _arguments(first, first + len(values) - 1)
        floor *= slope
        floor += const
    idx = np.flatnonzero(values >= floor)
    return idx + float(first), values[idx]


def _held(sieved: str):
    # the bound held against the records of sieved ("d" or "sigma"): its
    # evaluation, floor rule, rising point and report quantity.  Read when
    # a sweep runs, so that patches of these names apply to it
    if sieved == "d":
        return _nicolas_values, _nicolas_floor, _nicolas_rising_from, "divisor_count"
    return _robin_values, _robin_floor, _robin_rising_from, "divisor_sum"


def _records_clear(
    wlo: int, whi: int, sieved: str, slope: float, const: float, slack: float
) -> bool:
    # the one clearance rule (see _records_sweep): whether the floor
    # slope * n + const lies above sieved's record over m <= whi, raised
    # by slack * D(whi) per unit of n, at both ends of [wlo, whi],
    # compared exactly; an unbounded floor clears nothing
    if not (math.isfinite(slope) and math.isfinite(const)):
        return False
    most_d, most_ratio = record_maxima(whi)
    if slack:
        raise_by = Fraction(slack) * most_d
        most_d, most_ratio = most_d + raise_by, most_ratio + raise_by
    slope, const = Fraction(slope), Fraction(const)
    return all(
        (most_d if sieved == "d" else most_ratio * n) < slope * n + const
        for n in (wlo, whi)
    )


def _span_floor(a: int, b: int, sieved: str, c: float):
    # the held bound's floor for [a, b] past its rising point, or the
    # unbounded one where it nears overflow at b, which keeps inf out of it
    bound_values, floor_of = _held(sieved)[:2]
    at_a, at_b = bound_values(np.array([a, b], dtype=np.float64), c).tolist()
    return floor_of(a, b, c, at_a) if at_b < 1e300 else (0.0, -math.inf)


def _walk(lo: int, hi: int, start: int, clears):
    """The pieces (a, b, cleared) that cover [lo, hi], in order: first
    [lo, start - 1] in windows of at most SWEEP_WINDOW arguments, not
    cleared, then the doubling spans [x, 2x - 1] from x = max(lo, start),
    the last cut at hi (24 from 114 to 10**9).  A span is one piece when
    clears(x, end) holds, and is otherwise cut into such windows, each
    cleared when clears(a, b) holds, so a piece not cleared is at most a
    window long."""
    x = max(lo, start)
    for a, b in _window_ranges(lo, min(x - 1, hi), SWEEP_WINDOW):
        yield a, b, False
    while x <= hi:
        end = min(2 * x - 1, hi)
        if clears(x, end):
            yield x, end, True
        else:
            for a, b in _window_ranges(x, end, SWEEP_WINDOW):
                yield a, b, clears(a, b)
        x = end + 1


def _records_sweep(lo: int, hi: int, held, slack: float, check) -> list[BoundReport]:
    """The reports of check(a, b, held, floors) over the pieces of [lo, hi]
    that the records do not clear, in order; a range that is empty,
    starts below 3 or ends past SWEEP_MAX is rejected.

    held lists the bounds held against the record maxima, as pairs
    (sieved, c): Nicolas's d bound for "d" and Robin's sigma bound for
    "sigma" (_held), at the constant c.  _walk walks the range from the
    first integer past every held bound's rising point.  floors gives
    each held bound's floor on the piece, as (slope, const) of the affine
    floor slope * n + const.

    Floors.  Past its rising point the real bound does not decrease (for
    sigma, bound / n does not), so on a piece from a to b it is at least
    its value at a (n times that value over a), and floor_of puts the
    floor a further SCREEN_BAND of the bound's terms below.  The float
    bound is within a few ulps of those terms of the real one (for d,
    where the bound is finite and nonzero, its exponent and that
    exponent's terms stay below a few thousand for n <= SWEEP_MAX).
    Before the rising point, and where the bound nears overflow at b, the
    floor is the unbounded (0, -inf); a bound that overflows to +inf is
    never flagged.

    Clearance.  A span past the rising point, and each window of one that
    fails, is skipped when _records_clear holds for every held bound: the
    record D(b) = max d(m), or A(b) * n with A(b) = max sigma(m)/m, over
    m <= b, raised by slack * D(b) per unit of n, lies below the floor at
    both ends, compared exactly.  Every d(n) on the piece is at most D(b)
    and every sigma(n) at most A(b) * n, and both sides are affine in n,
    so then no value there, raised so, reaches the floor.

    The d and sigma sweeps (_upper_window) hold one bound with slack 0:
    an argument is flagged only when its margin is within RELATIVE_SLACK
    of the bound's terms, far inside SCREEN_BAND, so one whose value is
    below the floor cannot be flagged.  A window that is sieved is
    screened against its floor.  The bracket (_bracket_window) holds both
    with slack RELATIVE_SLACK: as sigma(k) >= k + 1 and d(k) >= 2,
    upper - middle >= k (N(k) - d(k)) and middle - lower >= R(k) - sigma(k),
    N and R the d and sigma bounds, and its slack RELATIVE_SLACK * |middle|
    is at most RELATIVE_SLACK * D(b) * k, as 0 <= middle <= k d(k).  The
    floors' band is far more than either margin's float error, so a piece
    where both raised records clear holds no flagged k.
    """
    _require_sweep(lo, hi, 3)
    held = [(sieved, float(c)) for sieved, c in held]
    start = math.floor(min(max(_held(s)[2](c) for s, c in held), hi)) + 1

    def floors(a, b):
        if a < start:
            return [(0.0, -math.inf)] * len(held)
        return [_span_floor(a, b, sieved, c) for sieved, c in held]

    def clears(a, b):
        return all(
            _records_clear(a, b, sieved, *floor, slack)
            for (sieved, _), floor in zip(held, floors(a, b))
        )

    reports = []
    for a, b, cleared in _walk(lo, hi, start, clears):
        if not cleared:
            reports += check(a, b, held, floors(a, b))
    return reports


def _upper_window(a: int, b: int, held, floors) -> list[BoundReport]:
    # value <= bound over the sieved window [a, b] of the one held bound,
    # evaluated only at the arguments whose value reaches its floor
    ((sieved, c),), (floor,) = held, floors
    bound_values, _, _, quantity = _held(sieved)
    ns, values = _at_or_above(divisor_window(a, b, sieved), a, *floor)
    return _reports(quantity, ns, values, _upper(values, bound_values(ns, c)))


def _bracket_window(a: int, b: int, held, floors) -> list[BoundReport]:
    # the bracket kernel over [a, b], sieved for d and sigma so that
    # middle = k*d(k) - sigma(k) is exact (int64)
    (_, nc), (_, rc) = held
    ks = _arguments(a, b)
    middles = ks.astype(np.int64) * divisor_window(a, b, "d")
    middles -= divisor_window(a, b, "sigma")
    return _reports("integral", ks, middles, _bracket(ks, middles, rc, nc))


def verify_divisor_bound(
    lo: int = 3, hi: int = 10**6, c: Fraction | float = NICOLAS_C
) -> list[BoundReport]:
    """Check d(n) <= nicolas_bound(n) for every n in [lo, hi].

    Returns only the arguments that violate the bound or land inside the
    slack band; an empty list means the bound held everywhere.
    """
    return _records_sweep(lo, hi, [("d", c)], 0.0, _upper_window)


def verify_sigma_bound(
    lo: int = 3, hi: int = 10**6, c: Fraction | float = ROBIN_C
) -> list[BoundReport]:
    """Check sigma(n) < robin_bound(n, c) for every n in [lo, hi].

    With the default constant the sweep to 1e6 reports exactly one
    violation, at n = 12; with ROBIN_C_ALTERNATE it reports none.
    """
    return _records_sweep(lo, hi, [("sigma", c)], 0.0, _upper_window)


def divisor_bound_at(k: int) -> BoundReport:
    """The check of verify_divisor_bound at the one argument k >= 3,
    returned whether or not it is flagged."""
    value = divisor_count(k)
    _require_n(k, 3)
    checked = _upper(_one(value), _nicolas_values(_one(k), float(NICOLAS_C)))
    return _reports("divisor_count", [k], [value], checked, every=True)[0]


def sigma_bound_at(k: int, c: Fraction | float = ROBIN_C) -> BoundReport:
    """The check of verify_sigma_bound at the one argument k >= 3,
    returned whether or not it is flagged."""
    value = divisor_sum(k)
    _require_n(k, 3)
    checked = _upper(_one(value), _robin_values(_one(k), float(c)))
    return _reports("divisor_sum", [k], [value], checked, every=True)[0]


def verify_integral_bracket(
    k: int,
    robin_c: Fraction | float = ROBIN_C,
    nicolas_c: Fraction | float = NICOLAS_C,
) -> BoundReport:
    """Bracket k*d(k) - sigma(k) strictly between 2k - robin_bound(k)
    and k*nicolas_bound(k) - k - 1, for k >= 3."""
    _require_n(k, 3)
    middle = incomplete_divisor_integral(k)
    checked = _bracket(_one(k), _one(middle), float(robin_c), float(nicolas_c))
    return _reports("integral", [k], [middle], checked, every=True)[0]


def verify_bracket_sweep(
    lo: int = 3,
    hi: int = 10**4,
    robin_c: Fraction | float = ROBIN_C,
    nicolas_c: Fraction | float = NICOLAS_C,
) -> list[BoundReport]:
    """The violated or borderline reports of verify_integral_bracket over
    every k in [lo, hi]; an empty range is rejected.

    The d and sigma bounds are both held against their records, the
    records raised by the bracket's slack (see _records_sweep); at the
    default constants every span to SWEEP_MAX clears, so [3, 113] is
    sieved.  The bracket kernel that verify_integral_bracket applies to
    one k checks each sieved window at once; its flagged entries are the
    reports.
    """
    return _records_sweep(
        lo, hi, [("d", nicolas_c), ("sigma", robin_c)], RELATIVE_SLACK,
        _bracket_window,
    )


def verify_theorem_lower_bound(n: int, m: int) -> BoundReport:
    """Check M(n) >= n^2 / nicolas_bound(n^2), for n >= 2.

    m is the distinct-product count M(n), supplied by the caller; the
    healthy margin (bound - value) is negative here.  The theorem's
    chain step max(12, bound) = bound is verified on the way: the check
    raises where the bound is below 12.
    """
    _require_n(n, 2)
    checked = _theorem(_theorem_floors(_one(n * n)), _one(m))
    return _reports("table_count", [n], [m], checked, every=True)[0]


def verify_theorem_sweep(hi: int = 500) -> list[BoundReport]:
    """The violated or borderline reports of verify_theorem_lower_bound
    over every n in [2, hi], in order; hi < 2 is rejected, and so is
    hi > products.COUNT_N_MAX, before anything is counted.

    The tables nest, so M(n) >= M(a) for every n >= a.  The sweep counts
    M(a) with count_distinct_segmented, from a = 2, takes it as the count
    of every n >= a, and runs the kernel the scalar check applies to one
    n over every n at once; the first n > a that the kernel flags is the
    next a.  The floors n^2 / N(n^2) depend on n alone, so they are
    evaluated once per sweep, over [2, hi] before the first count, and
    that evaluation raises as the scalar check does where the bound is
    below 12.  When the kernel flags no n past a, its flagged entries
    are the reports.  Four counts, M(2), M(20), M(212) and M(3412),
    clear every n up to COUNT_N_MAX.

    The reports are those of the exact count at every n, because a
    verdict that is clean at a count L is clean at every integer count
    M >= L in the same float evaluation: so an n that is not counted is
    clean at M(n), and every flagged n is counted.  The check is clean
    when its margin fl(floor - count) is below minus a slack that
    depends on the floor alone, and rounding is monotone, so that margin
    does not rise as the count rises.
    """
    if hi < 2:
        raise ValueError(f"empty range [2, {hi}]")
    _require_count_n(hi)
    ns = _arguments(2, hi)
    floors = _theorem_floors(ns * ns)
    counts = np.empty(hi - 1, dtype=np.int64)
    a = 2
    while a <= hi:
        counts[a - 2 :] = count_distinct_segmented(a)
        checked = _theorem(floors, counts)
        later = np.flatnonzero((checked[2] | checked[3])[a - 1 :])
        a = a + 1 + int(later[0]) if later.size else hi + 1
    return _reports("table_count", ns, counts, checked)


def _nicolas_step(a: int, b: int) -> float:
    """A lower bound on the relative rise of the real
    nicolas_bound(., NICOLAS_C) from n to n + 1, for every a <= n < b.

    The bound is exp(E(t)) at t = ln n, with L = ln t and
    E(t) = ln 2 * t * (L + c) / L**2, so E'(t) = ln 2 * g(L) with
    g(L) = 1/L + (c - 1)/L**2 - 2c/L**3 (see _nicolas_rising_from).
    g'(L) = (-L**2 - 2(c - 1) L + 6c) / L**4 has the sign of a downward
    parabola whose roots multiply to -6c < 0 for c > 0: one root is
    negative, so for L > 0 g rises up to the other root and falls past
    it, and its least value over [ln ln a, ln ln b] is at one of the
    two ends.  By the mean value theorem E(ln(n + 1)) - E(ln n) is at
    least that least value times ln 2 * ln(1 + 1/n), so at least
    step = ln 2 * min(g(ln ln a), g(ln ln b)) * ln(1 + 1/b), and the
    bound at n + 1 is at least exp(step) >= 1 + step times its value at n.
    """
    c = float(NICOLAS_C)
    least = min(
        1.0 / L + (c - 1.0) / L**2 - 2.0 * c / L**3
        for L in (math.log(math.log(a)), math.log(math.log(b)))
    )
    return _LN2 * least * math.log1p(1.0 / b)


def _nicolas_error(n: int) -> float:
    """A bound on the relative error of _nicolas_values at n >= 4 against
    the real bound at c = NICOLAS_C: e(n) = 64 * 2**-52 * (|E| + 1), E the
    bound's exponent ln 2 * ln n * (L + c) / L**2, L = ln ln n.

    It assumes numpy's float64 log and exp are within 4 ulp of the exact
    value and that every +, *, / and the constants ln 2 and c are rounded
    to nearest, within half an ulp; an ulp is at most u = 2**-52 of the
    value.  Then logs is within 4u of ln n, and loglogs within
    4u * (1 + 1/L) of L relatively.  E depends on L through
    1/L + c/L**2, which at most doubles a relative error of L; with the
    first log's 4u and 3.5u from the two constants and five roundings,
    the float exponent is within (15.5 + 8/L) u of E relatively.  exp
    turns that into a relative error of at most (15.5 + 8/L) u |E| of the
    bound and adds its own 4u.  For L >= 1/4, so n >= 4, the sum is at
    most (47.5 |E| + 4) u, which e(n) covers with room for the
    second-order terms.  e(n) grows with n wherever E does, past the
    rising point.
    """
    logn = math.log(n)
    loglog = math.log(logn)
    exponent = _LN2 * logn * (loglog + float(NICOLAS_C)) / loglog**2
    return 64.0 * 2.0**-52 * (abs(exponent) + 1.0)


def _nicolas_shape(
    lo: int, hi: int, rising_from: int, floor: float
) -> tuple[bool, bool]:
    """(bound strictly increasing on [rising_from, hi], bound > floor on
    [lo, hi]), for the float bound at c = NICOLAS_C.

    [lo, hi] is walked as the sweeps walk it (_walk): every argument up
    to the first integer past the real rising point (114 for
    c = 387/200) is evaluated, and past it each doubling span [a, b] is
    certified when _nicolas_step(a, b) > 3 * _nicolas_error(b), and then
    evaluated at its two ends only.  For a <= n < b the real bound rises
    by a relative step > 3e, with e = e(b) >= e(n) (E rises there).  The
    float bound at n + 1 is at least (1 + step)(1 - e) times the real
    bound at n, and the float bound at n at most (1 + e) times it; the
    first factor is the larger, since step > 3e > 2e / (1 - e) for
    e < 1/3.  So the float bound strictly increases on [a, b], and
    nowhere there is it below its value at a.  The margin between 3e and
    2e / (1 - e) covers the rounding of step and e themselves, a few ulps
    each.  A span that is not certified is evaluated at every argument,
    a window at a time.  Both checks are then decided by the evaluated
    values, in order.
    """
    c = float(NICOLAS_C)

    def certified(a, b):
        return a < b and _nicolas_step(a, b) > 3.0 * _nicolas_error(b)

    increasing = above = True
    last = -math.inf
    start = math.floor(_nicolas_rising_from(c)) + 1
    for a, b, ends_only in _walk(lo, hi, start, certified):
        ns = np.array([a, b], dtype=np.float64) if ends_only else _arguments(a, b)
        vals = _nicolas_values(ns, c)
        above = above and bool(np.all(vals > floor))
        if increasing and b >= rising_from:
            rising = vals[ns >= rising_from]
            # the first value is compared with the previous piece's last
            increasing = bool(rising[0] > last and np.all(np.diff(rising) > 0.0))
            last = rising[-1]
    return increasing, above


def nicolas_shape_check(hi: int = 10**6, floor: float = SHAPE_FLOOR) -> tuple[bool, bool]:
    """(nicolas_bound(n+1) > nicolas_bound(n) for every n in [SHAPE_START, hi),
    nicolas_bound(n) > floor for every n in [3, hi]), SHAPE_START = 114.
    Both are decided from the bound at [3, 113] and at the ends of the
    doubling spans from 114: between those the float bound provably
    rises (see _nicolas_shape), so about 160 evaluations cover
    hi = SWEEP_MAX."""
    _require_sweep(SHAPE_START, hi, SHAPE_START)
    if hi == SHAPE_START:
        raise ValueError(f"empty range [{SHAPE_START}, {SHAPE_START})")
    return _nicolas_shape(3, hi, SHAPE_START, floor)


def reference_densities(n: int) -> dict:
    """Descriptive density curves for the distinct-product ratio M(n)/n^2.

    Uses the exponent c = 1 + ln(ln 2)/ln 2 (about 0.4712) in both
    curves; note the exponent usually quoted for this asymptotic is
    1 - (1 + ln(ln 2))/ln 2 (about 0.0861), exposed separately as
    ERDOS_EXPONENT_COMMON.  These values are reported for side-by-side
    comparison only and are never asserted against measured densities.
    """
    _require_n(n, 3)
    logn = math.log(n)
    erdos = logn ** (-ERDOS_EXPONENT)
    ford = erdos * math.log(logn) ** (-1.5)
    return {
        "erdos_paper_c": ERDOS_EXPONENT,
        "erdos_density": erdos,
        "ford_density": ford,
    }
