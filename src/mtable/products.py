"""Counting distinct products in an n-by-n multiplication table.

M(n) is the number of distinct values a*b with 1 <= a, b <= n.  The
segmented counter sweeps the product range in fixed-size windows so
memory stays bounded, and its windows are independent, which makes the
parallel variant a plain map over windows followed by an integer sum; the
count is exact.  The prefix counter gives M(1), ..., M(N) from one bitmap
by counting, row by row, only the products that are new in that row.
"""

from __future__ import annotations

import csv
import math
import os
import time
import uuid
import warnings
from dataclasses import dataclass
from multiprocessing import Pool
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

# Window length (number of product values per window) for the segmented
# sweep, and the smallest length accepted.
SEGMENT_BITS_DEFAULT = 1 << 20
SEGMENT_BITS_MIN = 1 << 16

_MAX_WORKERS = 8


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


def _require_segment_bits(segment_bits: int):
    if segment_bits < SEGMENT_BITS_MIN:
        raise ValueError(
            f"segment_bits must be >= {SEGMENT_BITS_MIN}, got {segment_bits}"
        )


def _count_window(args: tuple[int, int, int]) -> int:
    """Distinct products of the n-table that land in [lo, hi]."""
    n, lo, hi = args
    window = np.zeros(hi - lo + 1, dtype=bool)
    # row a contributes products in [a*a, a*n]; skip rows entirely
    # outside the window; ceilings via integer arithmetic only
    a_lo = max(1, -(-lo // n))
    a_hi = min(n, math.isqrt(hi))
    for a in range(a_lo, a_hi + 1):
        b_lo = max(a, -(-lo // a))
        b_hi = min(n, hi // a)
        if b_lo > b_hi:
            continue
        window[a * b_lo - lo : a * b_hi - lo + 1 : a] = True
    return int(np.count_nonzero(window))


def count_distinct_segmented(
    n: int, segment_bits: int = SEGMENT_BITS_DEFAULT, parallel: bool = False
) -> int:
    """M(n) by sweeping [1, n^2] in windows of segment_bits values.

    Peak memory is one window regardless of n.  The per-window counts
    are exact integers, so the total is independent of the window length
    and of whether the windows run in parallel.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    _require_segment_bits(segment_bits)
    jobs = [(n, lo, hi) for lo, hi in _window_ranges(1, n * n, segment_bits)]
    if parallel and len(jobs) > 1:
        workers = min(len(jobs), os.cpu_count() or 1, _MAX_WORKERS)
        with Pool(processes=workers) as pool:
            counts = pool.map(_count_window, jobs)
    else:
        counts = [_count_window(job) for job in jobs]
    return sum(counts)


class _CacheError(Exception):
    pass


def load_cache(path: str | Path) -> dict[int, int]:
    """Read a census cache CSV (columns n,m) into a dict.

    Raises _CacheError on any malformed content; census() treats that as
    a corrupt cache and recomputes.
    """
    entries: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
    return entries


def save_cache(path: str | Path, entries: dict[int, int]):
    """Write entries as a census cache CSV, replacing path atomically.

    The rows go to a temporary file in path's directory, which then
    replaces path in one rename; a crash or a failed write leaves the
    previous cache as it was, and a concurrent reader sees either the
    old file or the new one, never a partial write.
    """
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


def census(
    n_values: Iterable[int],
    cache_path: str | Path | None = None,
    *,
    segment_bits: int = SEGMENT_BITS_DEFAULT,
    parallel: bool = False,
) -> list[TableCensus]:
    """Census points for each n, using (and updating) an optional cache.

    The cache stores n,m pairs only; density and mean multiplicity are
    always rederived, and the window length and pool never change a
    stored value.  segment_bits is checked on entry, also when every n
    is cached.  The cache file is written only when some n was computed;
    a cache that fails to parse is recomputed and overwritten.
    """
    _require_segment_bits(segment_bits)
    cached: dict[int, int] = {}
    if cache_path is not None and os.path.exists(cache_path):
        try:
            cached = load_cache(cache_path)
        except (_CacheError, OSError) as exc:
            warnings.warn(
                f"census cache {cache_path} is unreadable ({exc}); recomputing",
                stacklevel=2,
            )
            cached = {}
    out = []
    computed = False
    for n in n_values:
        start = time.perf_counter()
        if n in cached:
            m = cached[n]
        else:
            m = cached[n] = count_distinct_segmented(n, segment_bits, parallel)
            computed = True
        out.append(TableCensus.from_count(n, m, time.perf_counter() - start))
    if cache_path is not None and computed:
        save_cache(cache_path, cached)
    return out
