"""Counting distinct products in an n-by-n multiplication table.

M(n) is the number of distinct values a*b with 1 <= a, b <= n.  Write
k = 2^j * m with m odd.  For each odd m the levels j at which 2^j * m is
a product form one interval [0, T(m)] (see _count_window), so M(n) is
the sum of T(m) + 1 over the odd products m <= n^2, and the segmented
counter sweeps the odd m only, one byte per m holding T(m) + 1.  It
takes fixed-size windows of those (n^2 + 1)/2 positions so memory stays
bounded, and its windows are independent.  A census counts the windows
of every n it does not have cached as one job list, and one M(n) is the
list of one n: a list of at least POOL_MIN_WINDOWS windows is dealt out
to forked child processes (POSIX only), which reply with each window's
count and seconds, a shorter one is counted in the calling process, the
counts are summed by n, and they are exact either way.
A window is one bytearray.  Its pieces (odd x, t) come from a per-n
plan; piece (x, t) writes the label t_x + t + 1 at m = x*y for a range
of odd y, and those products step by x.  The bounds of all its pieces
come from one numpy pass; every piece with at least DENSE_ROW_MIN
products in it gets one strided slice assignment of that many label
bytes, in ascending label, so the last write is the largest, and the
products of all sparser pieces go through np.maximum.at on a zero-copy
numpy view, so peak memory is one window plus fewer than DENSE_ROW_MIN
index entries per piece.  The window's count is the sum of its bytes.
"""

from __future__ import annotations

import math
import os
import struct
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
    "census",
    "load_cache",
    "save_cache",
]

# Window length (number of odd-m positions per window) of the segmented
# sweep.  It changes no count, only the time and the memory of a window.
# Median seconds of one count in a fresh interpreter, on 2 shared vCPUs,
# interleaved (10 rounds; 8 serial; DENSE_ROW_MIN 64), at 2^18 / 2^19 /
# 2^20 positions: 0.271 / 0.206 / 0.170 at n = 2^14 with 2 workers,
# serial 0.400 / 0.313 / 0.214; at 2^20 / 2^21 / 2^22: 2 workers 0.154 /
# 0.173 / 0.190, serial 0.209 / 0.246 / 0.305 at 2^14 and 0.027 / 0.031
# / 0.038 at 5000, 2 workers 0.639 / 0.623 / 0.746 at 2^15 (4 rounds)
# and 3.58 / 3.41 / 3.28 at 2^16 (2 rounds, peak RSS 41.3 / 46.6 /
# 50.2 MB).
SEGMENT_WINDOW = 1 << 20

_MAX_WORKERS = 8

# A count forks its workers (see _count_tables and _fan_out) when its job
# list, every window of every n it counts, spans at least this many
# windows (n >= 8063 for one n at 2^20-position windows) and more than
# one CPU is usable.  The threshold is the least measured window count
# from which on the workers' median, pooled over every pass, is lower at
# every measured count.  Pooled medians of one count (one census of the
# README's n-list for "census") in a fresh interpreter, seconds, serial
# / 2 forked workers, and the rounds the workers won, on 2 shared
# vCPUs, serial and forked alternating, 1 to 7 passes of 20 rounds:
#   12 windows (n = 5000)   0.0187 / 0.0238     3 of 20
#   13 (5150)               0.0209 / 0.0277     7 of 40
#   14 (5300)               0.0211 / 0.0274     3 of 20
#   16 (5700)               0.0236 / 0.0280     4 of 20
#   18 (6000)               0.0352 / 0.0364     7 of 20
#   20 (6400)               0.0317 / 0.0339     6 of 20
#   24 (7000)               0.0314 / 0.0350    33 of 80
#   29 (7700)               0.0334 / 0.0295    43 of 60
#   30 (7900)               0.0360 / 0.0317    47 of 60
#   31 (8000)               0.0378 / 0.0341    44 of 60
#   31 (census 10 ... 5000) 0.0361 / 0.0364    85 of 140
#   32 (8192)               0.0412 / 0.0394   103 of 140
#   39 (9000)               0.0534 / 0.0474    50 of 60
#   48 (10000)              0.0630 / 0.0553    70 of 80
#   58 (11000)              0.0751 / 0.0677    56 of 60
#   69 (12000)              0.0901 / 0.0709    57 of 60
POOL_MIN_WINDOWS = 32

# Largest n count_distinct_segmented and census accept.  The count grows
# about as n**2.3: on 2 shared vCPUs M(2**16) = 911705949 took 3.2 and
# 3.7 s with its 2-worker pool, so 2**17 would take about 17 s.  A
# larger n is rejected before any window is built (at n = 10**7 the
# window list alone would need gigabytes).
COUNT_N_MAX = 1 << 16

# Pieces with at least this many products in a window get their own
# strided write in _count_window; the rest share one np.maximum.at.
# Median CPU seconds of every window of one count in one process, on 2
# shared vCPUs, the values interleaved, for 32 / 48 / 64: 0.0133 /
# 0.0135 / 0.0133 at n = 5000 (20 rounds), 0.151 / 0.149 / 0.147 at
# 2^14 (10 rounds), 0.746 / 0.740 / 0.924 at 2^15 (4 rounds) and 4.05 /
# 3.90 / 4.70 at 2^16 (1 round): from 2^15 on the pieces of
# 2^20/64 < x <= 2^20/48 are dense at 48, and their strided writes cost
# less than their batched products.
DENSE_ROW_MIN = 48

# A window's count is the sum of its bytes, each at most
# 2 log2(COUNT_N_MAX) + 1 = 33: as uint32 (0.17 ms per 2^20 bytes, against
# 0.39 ms as int64) for every window of at most this many positions.
_SUM32_WIDTH = ((1 << 32) - 1) // 33

# _count_window's strided writes key their runs label << _LABEL_SHIFT |
# count, one key per (label, count) for every count below 2^32.  Runs of
# fewer than _RUN_CAP bytes are kept in _runs() for every later window of
# the process, 0.70 MB of them at n = 2^14 and 0.96 MB at 2^16; a longer
# one, 4% of the strided writes at 2^14, is built for its window only.
_LABEL_SHIFT = 32
_RUN_CAP = 512


@lru_cache(maxsize=1)
def _runs() -> dict[int, bytearray]:
    """The label runs of fewer than _RUN_CAP bytes, by key (see
    _LABEL_SHIFT): a bytearray of count bytes equal to label, added by
    _count_window on first use.  A bytearray, not bytes: bytearray's
    slice assignment copies any other right-hand side first."""
    return {}


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


@lru_cache(maxsize=1)
def _plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pieces that _count_window writes for the n-table.

    Returns (steps, labels, firsts, lasts), one entry per piece (odd x, t)
    with at least one odd y in [max(x, (n >> (t + 1)) + 1), n >> t], in
    ascending x and, for one x, ascending t (see _count_window).  steps
    holds x, labels t_x + t + 1 with t_x = floor(log2(n/x)), and the
    piece's products x*y sit at the positions firsts, firsts + x, ...,
    lasts.  About n pieces, built once per n in each process, by its
    first window, so every window of one count shares it.  Read-only,
    int64 but for the uint8 labels.
    """
    x = np.arange(1, n + 1, 2, dtype=np.int64)
    # t_x + 1 pieces per x, t = 0, ..., t_x: y >= x leaves t_y <= t_x
    levels = np.frexp(n // x)[1]
    x = np.repeat(x, levels)
    t = np.arange(x.size) - np.repeat(levels.cumsum() - levels, levels)
    label = t + np.repeat(levels, levels)
    first = np.maximum(x, (n >> (t + 1)) + 1) | 1
    last = ((n >> t) - 1) | 1
    keep = first <= last
    x, first, last = x[keep], first[keep], last[keep]
    plan = (x, label[keep].astype(np.uint8), (x * first + 1) // 2, (x * last + 1) // 2)
    for array in plan:
        array.flags.writeable = False
    return plan


def _count_window(args: tuple[int, int, int]) -> int:
    """The products k <= n^2 of the n-table whose odd part m sits at a
    position in [lo, hi], position (m + 1)/2.

    Write k = 2^j * m with m odd.  The map k -> (j, m) is a bijection, so
    the windows of positions, each counting the products of its m at
    every level j, count each k once.  k = x'*y' with x', y' <= n iff
    m = x*y with x, y odd and j <= t_x + t_y, t_x = floor(log2(n/x)):
    x' = 2^i * x <= n needs i <= t_x and y' = 2^(j-i) * y <= n needs
    j - i <= t_y, and i = min(j, t_x) meets both when j <= t_x + t_y.  So
    the levels j at which 2^j * m is a product are one interval [0, T(m)],
    T(m) the largest t_x + t_y over the odd pairs x <= y <= n with
    x*y = m (and none if there is no pair), and m counts T(m) + 1
    products.  Piece (x, t) of the plan writes the label t_x + t + 1 at
    m = x*y for the odd y in [max(x, (n >> (t + 1)) + 1), n >> t], the
    y >= x with t_y = t; the pieces of one x take every y once, so the
    largest label written at m is T(m) + 1, and every m that is no
    product stays 0.  In the window a piece's positions step by x.

    The window's pieces are one slice of the plan, x from ceil(m_lo/n)
    to isqrt(m_hi) for its m in [m_lo, m_hi] (a position past
    (n^2 + 1)/2 holds no product).  Their bounds in the window come from
    one numpy pass, and pieces with no product in it are skipped there.
    A piece with at least DENSE_ROW_MIN products gets one strided write
    into the window's bytearray, buf[start:stop:step] = a run of exactly
    that many label bytes, and these writes go in ascending label: each
    replaces what earlier ones stored, all of them labels no larger, so
    after the last one a position holds the largest label of the dense
    pieces that cover it.  CPython runs the write in its own C loop, with
    less overhead per call than numpy's slice assignment, and raises if
    the run and the slice differ in length.  The runs of fewer than
    _RUN_CAP bytes come from _runs(), and every run a window takes is
    checked once there: one whose first byte is not its label raises
    ValueError.  The products of all other pieces are listed with
    np.repeat and cumsum and written at once by np.maximum.at through a
    numpy view of the same buffer, which keeps at each position the
    largest of its byte and every label written there, in any order (a
    fancy assignment would not do: numpy does not say which of repeated
    indices wins).  Those sparse indices number fewer than DENSE_ROW_MIN
    per piece, so besides the window they take at most
    8 * (DENSE_ROW_MIN - 1) * n bytes per int64 array.  The count is the
    sum of the window's bytes (see _SUM32_WIDTH).
    """
    n, lo, hi = args
    steps, labels, firsts, lasts = _plan(n)
    buf = bytearray(hi - lo + 1)
    # a zero-copy view for np.maximum.at and the count; while it exists
    # buf cannot be resized, so a step-1 write of the wrong length raises
    # BufferError as a strided one raises ValueError
    window = np.frombuffer(buf, dtype=np.uint8)
    m_lo, m_hi = 2 * lo - 1, 2 * hi - 1
    p_lo, p_hi = np.searchsorted(
        steps, (-(-m_lo // n) - 1, math.isqrt(m_hi)), side="right"
    ).tolist()
    x = steps[p_lo:p_hi]
    label = labels[p_lo:p_hi]
    first = firsts[p_lo:p_hi] - lo
    last = np.minimum(lasts[p_lo:p_hi] - lo, hi - lo)
    starts = first - x * np.minimum(first // x, 0)
    counts = (last - starts) // x + 1
    dense = np.flatnonzero(counts >= DENSE_ROW_MIN)
    dense = dense[np.argsort(label[dense], kind="stable")]
    keys = (label[dense].astype(np.int64) << _LABEL_SHIFT | counts[dense]).tolist()
    runs, window_runs = _runs(), {}
    for key in set(keys):
        value, count = key >> _LABEL_SHIFT, key & (1 << _LABEL_SHIFT) - 1
        run = runs.get(key)
        if run is None:
            run = bytearray((value,)) * count
            if count < _RUN_CAP:
                runs[key] = run
        elif run[0] != value:
            raise ValueError(f"a run of label {value} holds label {run[0]}")
        window_runs[key] = run
    for start, stop, step, key in zip(
        starts[dense].tolist(), (last[dense] + 1).tolist(), x[dense].tolist(), keys
    ):
        buf[start:stop:step] = window_runs[key]
    sparse = (counts > 0) & (counts < DENSE_ROW_MIN)
    if sparse.any():
        x, counts, starts = x[sparse], counts[sparse], starts[sparse]
        lasts = starts + x * (counts - 1)
        # index steps: x within a piece, and at a piece's first product
        # the jump from the previous piece's last index (from 0 for the
        # first)
        index = np.repeat(x, counts)
        index[np.cumsum(counts) - counts] = starts - np.concatenate(([0], lasts[:-1]))
        np.maximum.at(window, np.cumsum(index), np.repeat(label[sparse], counts))
    return int(window.sum(dtype=np.uint32 if len(buf) <= _SUM32_WIDTH else np.int64))


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
        (n, lo, hi)
        for n in ns
        for lo, hi in _window_ranges(1, (n * n + 1) // 2, SEGMENT_WINDOW)
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
    """M(n) by sweeping the odd m <= n^2 in windows of SEGMENT_WINDOW
    positions.

    Each window counts the products whose odd part it holds (see
    _count_window), from the pieces of _plan(n), which every process that
    counts a window builds for itself, forked workers included; the
    caller of a forked count builds none, which keeps its peak memory
    where it was before the plan.  Peak memory is one window plus the
    sparse pieces' indices (see _count_window), the label runs (see
    _RUN_CAP) and the plan, 25 bytes per piece: 0.41 MB at n = 2^14 and
    1.6 MB at 2^16.  The per-window counts are exact integers, so the
    total is independent of the window length and of where the windows
    are counted.  This is the one-n case of the census's count
    (_count_tables): with at least POOL_MIN_WINDOWS windows they go to
    one forked worker per usable CPU, at most _MAX_WORKERS, each taking
    every workers-th window (see _fan_out).  The heavy windows are the
    first ones, of the small m, and the interleaved shares split them:
    at n = 2^14 the two shares' serial CPU times differ by under 1%
    (0.127 s each, 2 shared vCPUs); with fewer windows, or one usable
    CPU, they are counted in this process and nothing is forked.
    os.fork makes the fan-out POSIX only.  The workers are reaped with
    waitpid, so their CPU time lands in os.times()'s children_user and
    children_system of the caller.  n may be at most COUNT_N_MAX.
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
