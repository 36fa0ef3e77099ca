"""Counting distinct products in an n-by-n multiplication table.

M(n) is the number of distinct values a*b with 1 <= a, b <= n.  The
segmented counter sweeps [1, n^2] in its 2-adic order: k = 2^j * m, m
odd, level j after level j - 1 and m rising within a level.  It takes
fixed-size windows of that order so memory stays bounded, and its
windows are independent.  A census counts the windows of every n it
does not have cached as one job list, and one M(n) is the list of one
n: a list of at least POOL_MIN_WINDOWS windows is dealt out to forked
child processes (POSIX only), which reply with each window's count and
seconds, a shorter one is counted in the calling process, the counts
are summed by n, and they are exact either way.
A window is one bytearray.  Its rows are (level j, odd a) pairs from a
per-n plan; row a writes m = a*b for a range of odd b, and in its level
those products step by a.  The bounds of all its rows come from one
numpy pass; every row with at least DENSE_ROW_MIN products in it gets
one strided slice assignment of that many ones, and the products of all
sparser rows are written at once through a zero-copy numpy view, so
peak memory is one window plus fewer than DENSE_ROW_MIN index entries
per row.  Row a > 1 starts past the b that row a/p(a) already covers,
p(a) the least prime factor of a: every m keeps its least row, and the
writes fall to about 68% of n^2/2.
"""

from __future__ import annotations

import math
import os
import struct
import time
import warnings
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "TableCensus",
    "count_distinct_segmented",
    "census",
    "load_cache",
    "save_cache",
]

# Window length (number of positions of the 2-adic order per window) of
# the segmented sweep.  It changes no count, only the time and the memory
# of a window.  Median seconds of one count in a fresh interpreter at
# 2^20 / 2^21 / 2^22, on 2 shared vCPUs, interleaved (8 rounds): serial
# 0.344 / 0.413 / 0.444 at n = 2^14 and 0.031 / 0.033 / 0.038 at 5000,
# 2 workers 0.238 / 0.269 / 0.293 at 2^14; serial at 2^15 (2 rounds)
# 1.87 and 1.40 / 1.79 and 1.44 / 1.72 and 1.66.
SEGMENT_WINDOW = 1 << 20

_MAX_WORKERS = 8

# A count forks its workers (see _count_tables and _fan_out) when its job
# list, every window of every n it counts, spans at least this many
# windows (n >= 5222 for one n at 2^20-value windows) and more than one
# CPU is usable.  The threshold is the least measured window count from
# which on the workers' median, pooled over every pass, is lower at
# every measured count.  Pooled medians of one count (one census of the
# README's n-list for "census") in a fresh interpreter, seconds, serial
# / 2 forked workers, and the rounds the workers won, on 2 shared
# vCPUs, serial and forked alternating, 6 or 10 passes of 10 rounds:
#   24 windows (n = 5000)  0.0253 / 0.0260    41 of 100
#   27 (5300)              0.0282 / 0.0276    58 of 100
#   30 (5600)              0.0325 / 0.0289    71 of 100
#   35 (6000)              0.0352 / 0.0321    44 of 60
#   41 (6500)              0.0445 / 0.0385    48 of 60
#   47 (7000)              0.0451 / 0.0422    51 of 60
#   57 (census 10 ... 5000) 0.0537 / 0.0467   51 of 60
#   64 (8192)              0.0631 / 0.0543    52 of 60
# Earlier passes at 78 to 256 windows (n = 9000 to 2^14) saw the workers'
# median lower in every pass.
POOL_MIN_WINDOWS = 27

# Largest n count_distinct_segmented and census accept.  The count grows
# about as n**2.3: on 2 shared vCPUs M(2**16) = 911705949 took 3.4 and
# 3.8 s with its 2-worker pool (6.8 s in one process), so 2**17 would
# take about 17 s.  A larger n is rejected before any window is built
# (at n = 10**7 the window list alone would need gigabytes).
COUNT_N_MAX = 1 << 16

# Rows with at least this many products in a window get their own strided
# write in _count_window; the rest share one batched write.  Median
# seconds of one serial count in a fresh interpreter, on 2 shared vCPUs,
# the values interleaved.  For 16 / 32 / 64 / 128 (10 rounds): 0.315 /
# 0.247 / 0.254 / 0.341 at n = 2^14 and 0.025 / 0.023 / 0.023 / 0.027
# at 5000.  For 32 / 64 again (12 rounds): 0.289 / 0.289 and 0.028 /
# 0.025; 32 was faster in 6 rounds at 2^14 and in 4 at 5000.  32 is not
# faster at both sizes, so 64 stays.
DENSE_ROW_MIN = 64

# The right-hand side of the batched write in _count_window: numpy
# assigns a 0-d array faster than it converts the Python True each time.
_TRUE = np.ones((), dtype=bool)

# Strided writes of fewer than _RUN_CAP products take their right-hand
# side from _runs(); a longer row, 10% of the strided writes at n = 2^14,
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
def _plan(n: int) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows that _count_window writes for the n-table, in 2-adic order.

    Returns (offsets, keys, steps, firsts, lasts).  offsets[j] counts the
    k <= n^2 with 2-adic valuation below j, for j = 0, ..., L + 1 where
    L = floor(log2 n^2), so offsets[L + 1] = n^2; level j's odd m sits at
    position offsets[j] + (m + 1)/2.  Each row is one (level j, odd a)
    pair with a nonempty range of odd b (see _count_window), sorted by
    keys = j*(n + 1) + a.  Its products a*b sit at the positions firsts,
    firsts + a, ..., lasts: steps holds a.  Fewer than 2n rows, built
    once per n in each process, by its first window, so every window of
    one count shares it.  Read-only, int64.
    """
    top = n * n
    levels = range(top.bit_length())
    offsets = [0, *accumulate(((top >> j) + 1) >> 1 for j in levels)]
    # every odd a <= isqrt(top >> j) at every level j: a <= b, a*b <= top >> j;
    # int32 up to the positions, which reach n^2, to halve the temporaries
    sizes = np.array([(math.isqrt(top >> j) + 1) >> 1 for j in levels], np.int32)
    j = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    a = np.arange(len(j), dtype=np.int32)
    a = 2 * (a - np.repeat(sizes.cumsum(dtype=np.int32) - sizes, sizes)) + 1
    p = _least_prime_factors(n)[a]
    # rows 1 at every level start at b = 1; row a > 1 past lim_j(a/p)//p
    start = np.where(a > 1, np.maximum(a, _limits(n, j, a // p) // p + 1), 1) | 1
    stop = (_limits(n, j, a) - 1) | 1
    keep = start <= stop
    j, a, start, stop = j[keep], a[keep], start[keep], stop[keep]
    base = np.array(offsets)[j]
    plan = (
        (j * (n + 1) + a).astype(np.int64),
        a.astype(np.int64),
        base + (np.multiply(a, start, dtype=np.int64) + 1) // 2,
        base + (np.multiply(a, stop, dtype=np.int64) + 1) // 2,
    )
    for array in plan:
        array.flags.writeable = False
    return (offsets, *plan)


def _limits(n: int, j: np.ndarray, a: np.ndarray) -> np.ndarray:
    """lim_j(a) = n >> (j - min(j, t)) for odd a <= n, t = floor(log2(n/a)):
    the largest b with a*b*2^j a product of two factors <= n."""
    t = np.frexp(n // a)[1] - 1
    return n >> np.maximum(j - t, 0)


def _count_window(args: tuple[int, int, int]) -> int:
    """Distinct products of the n-table at positions [lo, hi] of the
    2-adic order of [1, n^2].

    Write k = 2^j * m with m odd.  The map k -> (j, m) is a bijection, and
    level j's m are laid out at positions offsets[j] + (m + 1)/2 (see
    _plan), so the levels end to end are a permutation of [1, n^2] and
    the windows of positions count each k once.  k = x*y with x, y <= n
    iff m = a*b, a and b odd, with 2^i * a <= n and 2^(j-i) * b <= n for
    some i <= j.  Giving a as many of the 2s as it can take, i = min(j, t)
    with t = floor(log2(n/a)), leaves b the most room: k is a product iff
    b <= lim_j(a) = n >> (j - min(j, t)).  The condition is symmetric in
    a and b, so a <= b is enough.  Row a of level j writes m = a*b for
    the odd b in [max(a, lim_j(a/p)//p + 1), lim_j(a)], p = p(a) the
    least prime factor of a > 1 (row 1 from b = 1): the least row of
    every m is written, because if its b were at most lim_j(a/p)//p,
    then (a/p, b*p) would be a pair with a smaller row.  In its level the
    row's positions step by a.  At n = 2^14 this halves the strided calls
    of the row order a = 1, 2, ..., n, and writes 20% less.

    The window's rows are one slice of the plan: levels are found by
    bisection on the offsets, and in the first and last level the rows
    are cut to a >= ceil(m_lo/n) and a <= isqrt(m_hi), m_lo and m_hi the
    window's m there (a position past n^2, in level L + 1, holds no
    product).  Their bounds in the window come from one numpy pass, and
    rows with no product in it are skipped there.  A row with at least
    DENSE_ROW_MIN products gets one strided write into the window's
    bytearray, buf[start:stop:step] = a run of exactly that many ones:
    CPython runs it in its own C loop, with less overhead per call than
    numpy's slice assignment, and raises if the run and the slice differ
    in length.  The indices of all other rows are built with np.repeat
    and cumsum and written at once through a numpy view of the same
    buffer, which also counts it.  An index may repeat across rows, which
    is harmless because every write stores True.  Those sparse indices
    number fewer than DENSE_ROW_MIN per row, so besides the window they
    take at most 8 * (DENSE_ROW_MIN - 1) * 2n bytes per int64 array.
    """
    n, lo, hi = args
    offsets, keys, row_steps, row_firsts, row_lasts = _plan(n)
    buf = bytearray(hi - lo + 1)
    # a zero-copy view for the batched write and the count; while it
    # exists buf cannot be resized, so a step-1 write of the wrong length
    # raises BufferError as a strided one raises ValueError
    window = np.frombuffer(buf, dtype=bool)
    j_lo, j_hi = bisect_left(offsets, lo) - 1, bisect_left(offsets, hi) - 1
    m_lo, m_hi = 2 * (lo - offsets[j_lo]) - 1, 2 * (hi - offsets[j_hi]) - 1
    # rows from (j_lo, ceil(m_lo/n)) through (j_hi, isqrt(m_hi)) in key order
    r_lo, r_hi = np.searchsorted(
        keys,
        (j_lo * (n + 1) + -(-m_lo // n) - 1, j_hi * (n + 1) + math.isqrt(m_hi)),
        side="right",
    ).tolist()
    a = row_steps[r_lo:r_hi]
    first = row_firsts[r_lo:r_hi] - lo
    last = np.minimum(row_lasts[r_lo:r_hi] - lo, hi - lo)
    starts = first - a * np.minimum(first // a, 0)
    counts = (last - starts) // a + 1
    dense = counts >= DENSE_ROW_MIN
    runs = _runs()
    for start, stop, step, count in zip(
        starts[dense].tolist(),
        (last[dense] + 1).tolist(),
        a[dense].tolist(),
        counts[dense].tolist(),
    ):
        buf[start:stop:step] = (
            runs[count] if count < _RUN_CAP else bytearray(b"\x01") * count
        )
    sparse = (counts > 0) & ~dense
    if sparse.any():
        a, counts, starts = a[sparse], counts[sparse], starts[sparse]
        lasts = starts + a * (counts - 1)
        # index steps: a within a row, and at a row's first product the
        # jump from the previous row's last index (from 0 for the first)
        steps = np.repeat(a, counts)
        steps[np.cumsum(counts) - counts] = starts - np.concatenate(([0], lasts[:-1]))
        window[np.cumsum(steps)] = _TRUE
    return int(np.count_nonzero(window))


def _timed_window(job: tuple[int, int, int]) -> tuple[int, float]:
    """_count_window(job) and the seconds it took."""
    start = time.perf_counter()
    count = _count_window(job)
    return count, time.perf_counter() - start


# one window's reply from a forked worker: its count and its seconds
_REPLY = struct.Struct("=qd")


def _count_share(fd: int, jobs: list[tuple[int, int, int]]):
    """The body of a forked worker: count and time each of jobs, write
    the (count, seconds) pairs packed as _REPLY (or the exception's type
    and message) to fd, and leave through os._exit, exit status 0 only
    after every pair is written; an empty share writes nothing and exits
    0.  It never returns, so the child never unwinds into its parent's
    stack or flushes its parent's stdio buffers."""
    status = 1
    try:
        try:
            data = b"".join(_REPLY.pack(*_timed_window(job)) for job in jobs)
            counted = True
        except BaseException as exc:
            data = f"{type(exc).__name__}: {exc}".encode(errors="replace")
            counted = False
        while data:
            data = data[os.write(fd, data) :]
        status = 0 if counted else 1
    finally:
        os._exit(status)


def _fan_out(
    jobs: list[tuple[int, int, int]], workers: int
) -> list[tuple[int, float]]:
    """_timed_window of each of jobs, in order, counted by workers forked
    children, child k taking the interleaved share jobs[k::workers].

    The caller counts nothing.  It reads each child's pipe to EOF, reaps
    the child with waitpid and unpacks one (count, seconds) pair per
    window of its share; a child's error message, a reply of any other
    length, or a nonzero exit status raises RuntimeError.  Whatever ends
    the call, a finally block kills and reaps every child still unreaped,
    so none outlives it.  A forked child holds only the thread that
    forked it, not the helper threads numpy's BLAS may have started;
    _count_window calls no BLAS routine and takes no lock another thread
    could hold.
    """
    children: dict[int, int] = {}
    try:
        for k in range(workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _count_share(w, jobs[k::workers])
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            children[pid] = r
        replies: list = [None] * len(jobs)
        for k, (pid, r) in enumerate(list(children.items())):
            chunks = []
            while chunk := os.read(r, 4096):
                chunks.append(chunk)
            data = b"".join(chunks)
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            share = range(k, len(jobs), workers)
            if status != 0 or len(data) != _REPLY.size * len(share):
                raise RuntimeError(
                    f"counting worker {pid} failed: {data.decode(errors='replace')}"
                    if status != 0 and data
                    else f"counting worker {pid} exited without a count "
                    f"(exit code {os.waitstatus_to_exitcode(status)})"
                )
            replies[k::workers] = _REPLY.iter_unpack(data)
        return replies
    finally:
        if children:
            # only a failed or interrupted count gets here; imported at
            # the top, signal would cost every import of mtable 0.5 ms
            import signal

            for pid, r in children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(r)


def _count_tables(ns: list[int]) -> tuple[dict[int, int], dict[int, float]]:
    """M(n), and the seconds its windows took, for each of the distinct
    n of ns (each at most COUNT_N_MAX, not checked here).

    Every window of every n is one job of one list, n after n.  With at
    least POOL_MIN_WINDOWS jobs they go to one forked worker per usable
    CPU, at most _MAX_WORKERS (see _fan_out); with fewer, or one usable
    CPU, they are counted in this process and nothing is forked.  Each
    job is timed where it is counted, and the per-window counts and
    seconds are summed by n here.
    """
    jobs = [
        (n, lo, hi) for n in ns for lo, hi in _window_ranges(1, n * n, SEGMENT_WINDOW)
    ]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, _MAX_WORKERS)
    if len(jobs) >= POOL_MIN_WINDOWS and workers > 1:
        replies = _fan_out(jobs, workers)
    else:
        replies = map(_timed_window, jobs)
    counts = dict.fromkeys(ns, 0)
    seconds = dict.fromkeys(ns, 0.0)
    for (n, _, _), (count, took) in zip(jobs, replies):
        counts[n] += count
        seconds[n] += took
    return counts, seconds


def count_distinct_segmented(n: int) -> int:
    """M(n) by sweeping [1, n^2] in windows of SEGMENT_WINDOW values.

    The windows are windows of the 2-adic order of [1, n^2], and their
    rows come from _plan(n), which every process that counts a window
    builds for itself, forked workers included; the caller of a forked
    count builds none, which keeps its peak memory where it was before
    the plan.  Peak memory is one window plus the sparse rows' indices
    (see _count_window) and the plan, 32 bytes per row: 0.75 MB at
    n = 2^14 and 3.0 MB at 2^16.  The per-window counts are exact
    integers, so the total is independent of the window length and of
    where the windows are counted.  This is the one-n case of the
    census's count (_count_tables): with at least POOL_MIN_WINDOWS
    windows they go to one forked worker per usable CPU, at most
    _MAX_WORKERS, each taking every workers-th window (see _fan_out).
    That does not spread the heavy first windows of the levels: at
    n = 2^14, 2^15 and 2^16 every level up to level 7 starts at an even
    window index (0, 128, 192, ..., 254 at 2^14), so worker 0 of 2 gets
    them all, yet the two shares' serial sums differ by only about 4%
    (0.204 s and 0.197 s at 2^14, 2 shared vCPUs);
    with fewer windows, or one usable CPU, they are counted in this
    process and nothing is forked.  os.fork makes the fan-out POSIX
    only.  The workers are reaped with waitpid, so their CPU time lands
    in os.times()'s children_user and children_system of the caller.
    n may be at most COUNT_N_MAX.
    """
    _require_count_n(n)
    return _count_tables([n])[0][n]


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
    read or any n is counted, also when every n is cached.  The distinct
    n the cache does not hold are counted together: the windows of all
    of them are one job list, forked out once when it spans at least
    POOL_MIN_WINDOWS windows (see _count_tables).  The elapsed of the
    first point of each counted n is the wall time of that counting,
    split among the counted n in proportion to the seconds their windows
    took, so those points' elapsed add up to the counting's wall time; a
    cached n, or a repeat of a counted one, gets the near-zero time of
    its lookup.  The cache
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
    new = [n for n in dict.fromkeys(n_values) if n not in cached]
    start = time.perf_counter()
    counts, seconds = _count_tables(new)
    wall = time.perf_counter() - start
    total = sum(seconds.values())
    elapsed = {
        n: wall * took / total if total else wall / len(seconds)
        for n, took in seconds.items()
    }
    cached |= counts
    out = []
    for n in n_values:
        start = time.perf_counter()
        m = cached[n]
        took = elapsed.pop(n) if n in elapsed else time.perf_counter() - start
        out.append(TableCensus.from_count(n, m, took))
    if cache_path is not None and counts:
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
