"""Counting distinct products in an n-by-n multiplication table.

M(n) is the number of distinct values a*b with 1 <= a, b <= n.  The
segmented counter sweeps the product range in fixed-size windows so
memory stays bounded, and its windows are independent: a count of at
least POOL_MIN_WINDOWS windows maps them over a process pool and sums
the integers, a smaller one counts them in the calling process, and the
count is exact either way.  A window is one bytearray.  The bounds of
all its rows come from one numpy pass; every row with at least
DENSE_ROW_MIN products in it gets one strided slice assignment of that
many ones, and the products of all sparser rows are written at once
through a zero-copy numpy view, so peak memory is one window plus fewer
than DENSE_ROW_MIN index entries per row.  Row a > 1 starts past
b = n // p(a), p(a) the least prime factor of a: every product keeps its
least row, and the writes fall to about 85% of n^2/2.  The prefix
counter gives M(1), ..., M(N) from one bitmap by counting, row by row,
only the products that are new in that row.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "TableCensus",
    "count_distinct_segmented",
    "distinct_count_prefix",
    "census",
    "load_cache",
    "save_cache",
]

# Largest N distinct_count_prefix accepts: its bitmap holds N*N + 1 bytes,
# 64 MiB at N = 8192, where the whole prefix takes about half a second.
PREFIX_N_MAX = 8192

# Window length (number of product values per window) of the segmented
# sweep.  It changes no count, only the time and the memory of a window.
SEGMENT_WINDOW = 1 << 20

_MAX_WORKERS = 8

# count_distinct_segmented starts a pool when the table spans at least
# this many windows (n >= 9981 at 2^20-value windows) and more than one
# CPU is usable; below it, starting the pool costs about what the second
# worker saves, or more.  Median seconds of one count in a fresh
# interpreter, serial / 2 workers, and the rounds of 12 that the pool
# won, on 2 shared vCPUs, interleaved (two passes where two are given):
#   24 windows (n = 5000)  0.026 / 0.048   1
#   35 (6000)              0.041 / 0.050   3
#   47 (7000)              0.063 / 0.064   4
#   54 (7500)              0.061 / 0.065   6
#   64 (8192)              0.075 / 0.071   8;  0.072 / 0.078   8
#   78 (9000)              0.091 / 0.078  10;  0.093 / 0.087   9
#   87 (9500)              0.096 / 0.091   9;  0.103 / 0.092  11
#   96 (10000)             0.118 / 0.091  12;  0.117 / 0.095  10
#   116 (11000)            0.138 / 0.109  12
#   138 (12000)            0.172 / 0.123  12
#   256 (2^14)             0.379 / 0.218  12
# An earlier pass of 10 rounds gave the pool 6 of 10 at 78 windows and 9
# of 10 at 96; 96 is the least count at which it won at least five
# rounds in six in every pass.
POOL_MIN_WINDOWS = 96

# Largest n count_distinct_segmented and census accept.  The count grows
# about as n**2.6: on 2 shared vCPUs M(2**16) = 911705949 took 7.7 and
# 7.9 s with its 2-worker pool (13.0 s in one process), so 2**17 would
# take about 47 s.  A larger n is rejected before any window is built
# (at n = 10**7 the window list alone would need gigabytes).
COUNT_N_MAX = 1 << 16

# Rows with at least this many products in a window get their own strided
# write in _count_window; the rest share one batched write.  Median
# seconds of count_distinct_segmented with the bytearray write, on 2
# shared vCPUs, fresh interpreters, the values interleaved.  For 16 / 32
# / 64 / 128 (10 rounds): 0.373 / 0.398 / 0.386 / 0.636 at n = 2^14 and
# 0.036 / 0.036 / 0.039 / 0.038 at 5000; 16 was fastest in 5 rounds at
# 2^14, 16 and 32 in 4 each at 5000.  For 16 / 32 / 64 again (12 rounds):
# 0.459 / 0.468 / 0.467 and 0.034 / 0.039 / 0.034; 64 was fastest in 6
# rounds at both sizes.  No value was fastest in most rounds at both
# sizes, so 64 stays.
DENSE_ROW_MIN = 64

# The right-hand side of the batched write in _count_window: numpy
# assigns a 0-d array faster than it converts the Python True each time.
_TRUE = np.ones((), dtype=bool)

# Strided writes of fewer than _RUN_CAP products take their right-hand
# side from _runs(); a longer row, 3% of the strided writes at n = 2^14,
# builds its own (as fast as giving it numpy's write, in interleaved runs
# at 2^14 and 5000).
_RUN_CAP = 512


@lru_cache(maxsize=1)
def _runs() -> list[bytearray]:
    """runs[c] is a bytearray of c ones, for every c < _RUN_CAP (128 KiB
    in all), built on first use.  A bytearray, not bytes: bytearray's
    slice assignment copies any other right-hand side first."""
    return [bytearray(b"\x01") * c for c in range(_RUN_CAP)]


@dataclass(frozen=True)
class TableCensus:
    """One census point: the distinct count and its derived ratios."""

    n: int
    distinct_count: int
    density: float
    mean_multiplicity: float
    elapsed: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not 2 * self.n - 1 <= self.distinct_count <= self.n * self.n:
            raise ValueError(
                f"M({self.n}) = {self.distinct_count} is outside [2n-1, n^2]"
            )

    @classmethod
    def from_count(cls, n: int, m: int, elapsed: float) -> "TableCensus":
        square = n * n
        return cls(
            n=n,
            distinct_count=m,
            density=m / square,
            mean_multiplicity=square / m,
            elapsed=elapsed,
        )


def distinct_count_prefix(n_max: int) -> np.ndarray:
    """M(n) for every n in [0, n_max] (int64, M(0) = 0), in one pass.

    The n-table is the (n-1)-table plus the row n*1, ..., n*n, so M(n) is
    M(n-1) plus the number of products in that row not seen before.  One
    bitmap over [0, n_max^2] remembers every product seen so far; each
    row costs one strided read and one strided write.
    """
    if not 1 <= n_max <= PREFIX_N_MAX:
        raise ValueError(f"n_max must be in [1, {PREFIX_N_MAX}], got {n_max}")
    seen = np.zeros(n_max * n_max + 1, dtype=bool)
    counts = np.zeros(n_max + 1, dtype=np.int64)
    for n in range(1, n_max + 1):
        row = seen[n : n * n + 1 : n]
        counts[n] = counts[n - 1] + row.size - np.count_nonzero(row)
        row[:] = True
    return counts


def _window_ranges(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Consecutive windows of width values covering [lo, hi]; the last
    one may be shorter."""
    return [(start, min(start + width - 1, hi)) for start in range(lo, hi + 1, width)]


def _require_count_n(n: int):
    if not 1 <= n <= COUNT_N_MAX:
        raise ValueError(f"n must be in [1, {COUNT_N_MAX}], got {n}")


def _require_cache_path(path: str | Path):
    # a directory, or a path in a directory that does not exist, can be
    # neither read nor replaced as a cache file
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"census cache {path} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"census cache directory {path.parent} does not exist")


def _least_prime_factors(n: int) -> np.ndarray:
    """p(a), the least prime factor of a, for every a in [0, n], as int32
    (p(0) = 0 and p(1) = 1): one pass per prime up to isqrt(n) lowers
    each of its multiples from p^2 on to p."""
    lpf = np.arange(n + 1, dtype=np.int32)
    for p in range(2, math.isqrt(n) + 1):
        if lpf[p] == p:
            multiples = lpf[p * p :: p]
            np.minimum(multiples, p, out=multiples)
    return lpf


@lru_cache(maxsize=1)
def _row_starts(n: int) -> np.ndarray:
    """The least b that _count_window writes in row a of the n-table, for
    every a in [0, n]: max(a, n//p(a) + 1) for a > 1, and 1 for a = 1.

    Built once per n in each process, so every window of one count
    shares it; pool workers build their own.  Read-only, int64.
    """
    starts = np.ones(n + 1, dtype=np.int64)
    starts[2:] = np.maximum(np.arange(2, n + 1), n // _least_prime_factors(n)[2:] + 1)
    starts.flags.writeable = False
    return starts


def _count_window(args: tuple[int, int, int]) -> int:
    """Distinct products of the n-table that land in [lo, hi].

    Row a contributes a*b for b in [max(s(a), ceil(lo/a)), min(n, hi//a)],
    where the row start s(a) = _row_starts(n)[a] is 1 for row 1 and
    max(a, n//p(a) + 1) for a > 1, p(a) being the least prime factor of
    a.  That still marks every product k: the least row of k is the least
    divisor a of k with k/a <= n, and if its b = k/a were at most n/p(a),
    then a/p(a) would be a smaller such divisor.  The start cuts the
    writes from n^2/2 to about 85% of it.

    Every row's bounds come from one numpy pass, and rows with no product
    in the window are skipped there.  A row with at least DENSE_ROW_MIN
    products gets one strided write into the window's bytearray,
    buf[start:stop:step] = a run of exactly that many ones: CPython runs
    it in its own C loop, with less overhead per call than numpy's
    slice assignment, and raises if the run and the slice differ in
    length.  The indices of all other rows are built with np.repeat and
    cumsum and written at once through a numpy view of the same buffer,
    which also counts it.  An index may repeat across rows, which is
    harmless because every write stores True.  Those sparse indices
    number fewer than DENSE_ROW_MIN per row, so besides the window they
    take at most 8 * (DENSE_ROW_MIN - 1) * n bytes per int64 array.
    """
    n, lo, hi = args
    buf = bytearray(hi - lo + 1)
    # a zero-copy view for the batched write and the count; while it
    # exists buf cannot be resized, so a step-1 write of the wrong length
    # raises BufferError as a strided one raises ValueError
    window = np.frombuffer(buf, dtype=bool)
    a_lo, a_hi = max(1, -(-lo // n)), min(n, math.isqrt(hi))
    a = np.arange(a_lo, a_hi + 1, dtype=np.int64)
    b_lo = np.maximum(_row_starts(n)[a_lo : a_hi + 1], -(-lo // a))
    b_hi = np.minimum(n, hi // a)
    counts = b_hi - b_lo + 1
    starts = a * b_lo - lo
    lasts = a * b_hi - lo
    dense = counts >= DENSE_ROW_MIN
    runs = _runs()
    for start, stop, step, count in zip(
        starts[dense].tolist(),
        (lasts[dense] + 1).tolist(),
        a[dense].tolist(),
        counts[dense].tolist(),
    ):
        buf[start:stop:step] = (
            runs[count] if count < _RUN_CAP else bytearray(b"\x01") * count
        )
    sparse = (counts > 0) & ~dense
    if sparse.any():
        a, counts = a[sparse], counts[sparse]
        starts, lasts = starts[sparse], lasts[sparse]
        # index steps: a within a row, and at a row's first product the
        # jump from the previous row's last index (from 0 for the first)
        steps = np.repeat(a, counts)
        steps[np.cumsum(counts) - counts] = starts - np.concatenate(([0], lasts[:-1]))
        window[np.cumsum(steps)] = _TRUE
    return int(np.count_nonzero(window))


def count_distinct_segmented(n: int) -> int:
    """M(n) by sweeping [1, n^2] in windows of SEGMENT_WINDOW values.

    Peak memory is one window plus the sparse rows' indices (see
    _count_window).  The per-window counts are exact integers, so the
    total is independent of the window length and of where the windows
    are counted.  With at least POOL_MIN_WINDOWS windows they go to a
    pool of one worker per usable CPU, at most _MAX_WORKERS; with fewer
    windows, or one usable CPU, they are counted in this process and no
    pool starts.  n may be at most COUNT_N_MAX.
    """
    _require_count_n(n)
    jobs = [(n, lo, hi) for lo, hi in _window_ranges(1, n * n, SEGMENT_WINDOW)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, _MAX_WORKERS)
    if len(jobs) >= POOL_MIN_WINDOWS and workers > 1:
        from multiprocessing import Pool

        with Pool(processes=workers) as pool:
            return sum(pool.map(_count_window, jobs))
    return sum(map(_count_window, jobs))


class _CacheError(Exception):
    pass


def load_cache(path: str | Path) -> dict[int, int]:
    """Read a census cache CSV (columns n,m) into a dict.

    Raises _CacheError on any malformed content, undecodable bytes and
    oversized fields included; census() treats that as a corrupt cache
    and recomputes.
    """
    import csv

    entries: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != ["n", "m"]:
                raise _CacheError(f"unexpected header {header!r}")
            for row in reader:
                if len(row) != 2:
                    raise _CacheError(f"malformed row {row!r}")
                try:
                    n, m = int(row[0]), int(row[1])
                except ValueError as exc:
                    raise _CacheError(f"non-integer row {row!r}") from exc
                if n < 1 or not 2 * n - 1 <= m <= n * n:
                    raise _CacheError(f"implausible entry n={n}, m={m}")
                if entries.get(n, m) != m:
                    raise _CacheError(f"conflicting entries for n={n}")
                entries[n] = m
        except (UnicodeDecodeError, csv.Error) as exc:
            raise _CacheError(str(exc)) from exc
    return entries


def save_cache(path: str | Path, entries: dict[int, int]):
    """Write entries as a census cache CSV, replacing path atomically.

    The rows go to a temporary file in path's directory, which then
    replaces path in one rename; a crash or a failed write leaves the
    previous cache as it was, and a concurrent reader sees either the
    old file or the new one, never a partial write.
    """
    import csv
    import uuid

    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "m"])
            for n in sorted(entries):
                writer.writerow([n, entries[n]])
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_cache(path: str | Path) -> dict[int, int]:
    """load_cache(path), or {} when path is absent or fails to parse; a
    cache that fails to parse is reported as a warning."""
    if not os.path.exists(path):
        return {}
    try:
        return load_cache(path)
    except (_CacheError, OSError) as exc:
        warnings.warn(
            f"census cache {path} is unreadable ({exc}); recomputing",
            stacklevel=3,
        )
        return {}


@contextmanager
def _cache_lock(path: str | Path):
    """Hold an exclusive flock on the sidecar file .<name>.lock beside path.

    The lock file is left in place: removing it would let a waiting
    writer lock a file that a newcomer has already replaced.
    """
    import fcntl

    path = Path(path)
    lock = path.with_name(f".{path.name}.lock")
    fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def census(
    n_values: Iterable[int], cache_path: str | Path | None = None
) -> list[TableCensus]:
    """Census points for each n, using (and updating) an optional cache.

    The cache stores n,m pairs only; density and mean multiplicity are
    always rederived.  Every
    n (at most COUNT_N_MAX) and the cache path (not a directory, and in
    a directory that exists) are checked on entry, before the cache is
    read or any n is counted, also when every n is cached.  The cache
    file is written only when some n was computed, under a lock on a
    sidecar file: the cache is read again there and the new entries are
    merged in, so concurrent writers keep each other's entries.  A cache
    that fails to parse, or holds an entry that conflicts with this
    census, is recomputed and overwritten.
    """
    n_values = list(n_values)
    for n in n_values:
        _require_count_n(n)
    if cache_path is not None:
        _require_cache_path(cache_path)
    cached = {} if cache_path is None else _read_cache(cache_path)
    out = []
    computed = False
    for n in n_values:
        start = time.perf_counter()
        if n in cached:
            m = cached[n]
        else:
            m = cached[n] = count_distinct_segmented(n)
            computed = True
        out.append(TableCensus.from_count(n, m, time.perf_counter() - start))
    if cache_path is not None and computed:
        with _cache_lock(cache_path):
            merged = _read_cache(cache_path)
            clash = sorted(n for n, m in cached.items() if merged.get(n, m) != m)
            if clash:
                warnings.warn(
                    f"census cache {cache_path} has conflicting entries for "
                    f"n = {clash}; overwriting",
                    stacklevel=2,
                )
                merged = {}
            save_cache(cache_path, merged | cached)
    return out
