"""Distinct-product counting: segmented route vs the dense oracle, census, cache."""

import csv
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from bisect import bisect_left
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import count_distinct_dense, prefix_counts, product_bitmap
from test_acceptance import CENSUS_COUNTS

from mtable import products
from mtable.products import (
    COUNT_N_MAX,
    DENSE_ROW_MIN,
    TableCensus,
    _CacheError,
    _count_window,
    _least_prime_factors,
    _plan,
    _window_ranges,
    census,
    count_distinct_segmented,
    load_cache,
    save_cache,
)

KNOWN_COUNTS = {1: 1, 2: 3, 3: 6, 4: 9, 5: 14, 10: 42, 50: 800, 100: 2906}


def brute_count(n):
    return len({a * b for a in range(1, n + 1) for b in range(1, n + 1)})


def test_dense_known_counts():
    for n, m in KNOWN_COUNTS.items():
        assert count_distinct_dense(n) == m


def test_dense_matches_brute_force():
    for n in range(1, 101):
        assert count_distinct_dense(n) == brute_count(n), n


def test_window_ranges_partition():
    for n in (10, 300, 2000):
        ranges = _window_ranges(1, n * n, 1 << 16)
        assert ranges[0][0] == 1
        assert ranges[-1][1] == n * n
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert lo == hi + 1


@lru_cache(maxsize=None)
def _bitmap(n):
    return product_bitmap(n)


@lru_cache(maxsize=None)
def _order(n):
    """The 2-adic order of [1, n^2]: every k sorted by v2(k), then by k.
    Returns the k at each position (order[p - 1] for position p) and the
    position of each k (position[k], entry 0 unused)."""
    k = np.arange(1, n * n + 1, dtype=np.int32)
    order = k[np.argsort(k & -k, kind="stable")]
    position = np.zeros(n * n + 1, dtype=np.int32)
    position[order] = k
    return order, position


def window_oracle(n, lo, hi):
    """Distinct products of the n-table at positions [lo, hi] of the
    2-adic order, from the dense bitmap."""
    return int(np.count_nonzero(_bitmap(n)[_order(n)[0][lo - 1 : hi]]))


def least_prime_factor(a):
    """p(a) by trial division, with p(0) = 0 and p(1) = 1."""
    if a < 2:
        return a
    return next((d for d in range(2, math.isqrt(a) + 1) if a % d == 0), a)


def limit(n, j, a):
    """The largest b with a * b * 2^j = x * y, x = 2^i * a and y = 2^(j-i) * b
    both at most n, by trial of every i <= j (0 if there is none)."""
    return max((n >> (j - i) for i in range(j + 1) if a << i <= n), default=0)


@lru_cache(maxsize=None)
def plan_rows(n):
    """(j, a, first b, last b) for every row of the n-table in 2-adic order
    with at least one product, sorted by j and a: row 1 of level j takes
    the odd b from 1, row a > 1 the odd b >= a past limit(j, a/p) // p,
    p its least prime factor by trial division, and every row stops at
    limit(j, a)."""
    rows = []
    for j in range((n * n).bit_length()):
        for a in range(1, n + 1, 2):
            if a * a << j > n * n:
                break
            p = least_prime_factor(a)
            first = 1 if a == 1 else max(a, limit(n, j, a // p) // p + 1) | 1
            last = (limit(n, j, a) - 1) | 1
            if first <= last:
                rows.append((j, a, first, last))
    return rows


def row_counts(n, lo, hi):
    """Products each row puts at positions [lo, hi], keyed by (j, a), for
    every row that puts any there."""
    position = _order(n)[1]
    counts = {}
    for j, a, first, last in plan_rows(n):
        at = position[(a * np.arange(first, last + 1, 2)) << j]
        count = int(np.count_nonzero((lo <= at) & (at <= hi)))
        if count:
            counts[j, a] = count
    return counts


def position_of(n, j, a, b):
    """The position of the product a * b * 2^j in the 2-adic order."""
    return int(_order(n)[1][(a * b) << j])


def test_positions_are_a_bijection():
    # offsets[j] + (m + 1)/2 for k = 2^j * m, m odd, is the 2-adic order
    # of [1, n^2], a permutation of it, for every n up to 300: n^2 a power
    # of two (1, 2, 4, ...) or not
    for n in range(1, 301):
        top = n * n
        offsets = _plan(n)[0]
        assert len(offsets) == top.bit_length() + 1 and offsets[-1] == top
        k = np.arange(1, top + 1)
        low = k & -k
        j = np.log2(low).astype(np.int64)
        at = np.array(offsets)[j] + (k // low + 1) // 2
        assert np.array_equal(np.sort(at), k), n
        assert np.array_equal(at, _order(n)[1][1:]), n


def test_plan_matches_trial_division():
    for n in (1, 2, 3, 12, 299, 300, 2000):
        offsets, keys, steps, firsts, lasts = _plan(n)
        k = np.arange(1, n * n + 1)
        assert offsets == [
            int(np.count_nonzero((k & -k) < (1 << j)))
            for j in range((n * n).bit_length() + 1)
        ], n
        rows = plan_rows(n)
        assert keys.tolist() == [j * (n + 1) + a for j, a, _, _ in rows], n
        assert steps.tolist() == [a for _, a, _, _ in rows], n
        assert firsts.tolist() == [position_of(n, j, a, b) for j, a, b, _ in rows]
        assert lasts.tolist() == [position_of(n, j, a, b) for j, a, _, b in rows]
        assert len(rows) < 2 * n
        for array in keys, steps, firsts, lasts:
            assert array.dtype == np.int64 and not array.flags.writeable


def test_windows_sum_to_brute_force_at_every_width():
    # whole tables swept window by window add up to M(n) by brute force:
    # every n up to 300 at widths 64 and 1000, widths 1 and 7 up to 48,
    # and width 7 at 128 and 255; the windows at the top of a table span
    # several levels, which hold from n^2/2 values down to one
    spans = set()
    for n in range(1, 301):
        expect = brute_count(n)
        widths = (64, 1000)
        if n <= 48:
            widths = (1, 7, 64, 1000)
        elif n in (128, 255):
            widths = (7, 64, 1000)
        offsets = _plan(n)[0]
        for width in widths:
            windows = _window_ranges(1, n * n, width)
            total = sum(_count_window((n, lo, hi)) for lo, hi in windows)
            assert total == expect, (n, width)
            spans.update(
                bisect_left(offsets, hi) - bisect_left(offsets, lo) for lo, hi in windows
            )
    assert max(spans) >= 5


def test_count_window_narrow_windows():
    # width 1 (a product or a gap) and widths around the cut-off, at
    # offsets on and between products
    for n in (1, 2, 7, 60, 299):
        top = n * n
        for lo in sorted({1, 2, top // 3 + 1, top // 2 + 1, max(1, top - 5), top}):
            for width in (1, 2, 5, DENSE_ROW_MIN - 1, DENSE_ROW_MIN + 1):
                hi = lo + width - 1
                assert _count_window((n, lo, hi)) == window_oracle(n, lo, hi), (
                    n, lo, hi,
                )


def test_count_window_no_rows():
    # no row of the window's level has a in [ceil(m_lo/n), isqrt(m_hi)]:
    # m in [91, 99] at n = 10, [7, 7] at n = 3, [9901, 9999] at 100
    for n, lo, hi in ((10, 46, 50), (10, 50, 50), (3, 4, 4), (100, 4951, 5000)):
        order = _order(n)[0]
        m_lo, m_hi = int(order[lo - 1]), int(order[hi - 1])
        assert m_lo % 2 == m_hi % 2 == 1 and hi <= (n * n + 1) // 2
        assert -(-m_lo // n) > math.isqrt(m_hi)
        assert _count_window((n, lo, hi)) == 0
    # past the table
    for n, lo, hi in ((3, 10, 10), (100, 10**4 + 1, 10**4 + 500)):
        assert _count_window((n, lo, hi)) == 0
    # a row in range, yet it misses the window: position 42 at n = 10 is
    # m = 83, and row 9 of level 0 holds 81 only
    assert _order(10)[0][41] == 83
    assert row_counts(10, 41, 41) == {(0, 9): 1}
    assert row_counts(10, 42, 42) == {}
    assert _count_window((10, 42, 42)) == 0


def test_count_window_cut_off_boundary():
    # a window holding exactly cut-off - 1 and exactly cut-off products of
    # row 3 of level 0, up to its last one, b = 299, and past it the dense
    # row 5 and sparse rows, so both the batched and the strided write run
    n = 300
    assert (0, 3, 101, 299) in plan_rows(n)
    hi = position_of(n, 0, 3, 299) + 400
    for width in (DENSE_ROW_MIN - 1, DENSE_ROW_MIN):
        lo = position_of(n, 0, 3, 299 - 2 * (width - 1))
        counts = row_counts(n, lo, hi)
        assert counts[0, 3] == width and counts[0, 5] >= DENSE_ROW_MIN
        assert {c >= DENSE_ROW_MIN for c in counts.values()} == {False, True}
        assert _count_window((n, lo, hi)) == window_oracle(n, lo, hi)
        # the same row again, starting between two of its products
        assert _count_window((n, lo + 1, hi)) == window_oracle(n, lo + 1, hi)


def test_count_window_mixes_both_branches():
    # sweeps of whole tables for every n up to 300, at a window width
    # that cycles with n, add up to M(n) window by window
    kinds = set()
    for n in range(1, 301):
        top = n * n
        width = (97, 1000, 4099)[n % 3]
        total = 0
        for lo in range(1, top + 1, width):
            hi = min(lo + width - 1, top)
            got = _count_window((n, lo, hi))
            assert got == window_oracle(n, lo, hi), (n, lo, hi)
            total += got
            if n == 300 and len(kinds) < 2:
                kinds.update(c >= DENSE_ROW_MIN for c in row_counts(n, lo, hi).values())
        assert total == count_distinct_dense(n), n
    # strided and batched rows both occurred
    assert kinds == {False, True}


def test_count_window_row_start_boundary():
    # windows that start or end at the last odd b that a row's start
    # leaves out and at its first one: odd composites with p = 3 and
    # p = 5 and a prime, at level 0 and at a level where lim_j(a) < n;
    # and row 1, whose boundary is its end, lim_j(1)
    n = 299
    rows = {(j, a): (first, last) for j, a, first, last in plan_rows(n)}
    for j, a, p in ((0, 21, 3), (4, 21, 3), (0, 35, 5), (4, 35, 5), (0, 13, 13),
                    (0, 1, 1), (9, 1, 1)):
        assert least_prime_factor(a) == p
        assert (limit(n, j, a) < n) == (j > 0)
        first, last = rows[j, a]
        if a > 1:
            assert first > a and limit(n, j, a // p) // p in (first - 1, first - 2)
            left_out, written = first - 2, first
        else:
            assert first == 1 and last == (limit(n, j, 1) - 1) | 1
            left_out, written = last + 2, last
        for b, count in ((left_out, None), (written, 1)):
            x = position_of(n, j, a, b)
            assert row_counts(n, x, x).get((j, a)) == count
            for width in (1, 2, a + 1, DENSE_ROW_MIN, 4 * DENSE_ROW_MIN * a, 5000):
                for lo, hi in ((x, x + width - 1), (max(1, x - width + 1), x)):
                    assert _count_window((n, lo, hi)) == window_oracle(n, lo, hi), (
                        j, a, lo, hi,
                    )


def test_count_window_run_cap_boundary():
    # a window holding exactly cap - 1, cap and cap + 1 products of a row:
    # the strided write takes its run from the table below the cap and
    # builds it at and above; row 3 of level 0 starts at b = 667, row 5
    # of level 1 at b = 401
    n, cap = 2000, products._RUN_CAP
    rows = plan_rows(n)
    for j, a, b in ((0, 3, 667), (1, 5, 401)):
        assert (j, a, b, 1999) in rows
        for width in (cap - 1, cap, cap + 1):
            lo, hi = position_of(n, j, a, b), position_of(n, j, a, b + 2 * (width - 1))
            assert row_counts(n, lo, hi)[j, a] == width
            assert _count_window((n, lo, hi)) == window_oracle(n, lo, hi)
            # the same row again, starting between two of its products
            assert _count_window((n, lo + 1, hi + 1)) == window_oracle(n, lo + 1, hi + 1)


def test_count_window_row_one():
    # row 1 is a step-1 write, a contiguous slice of the window's buffer
    # while the numpy view of that buffer exists; it holds fewer products
    # than the cap, more, or all of its level's: positions 1 to 1000 at
    # level 0, and 2000001 on at level 1
    n = 2000
    for lo, hi in ((1, DENSE_ROW_MIN), (1, 600), (37, 999), (1, 1000), (5, 2000),
                   (2000001, 2000600)):
        counts = row_counts(n, lo, hi)
        assert max(counts[j, a] for j, a in counts if a == 1) >= DENSE_ROW_MIN
        assert _count_window((n, lo, hi)) == window_oracle(n, lo, hi), (lo, hi)


def test_count_window_mixes_runs_big_rows_and_sparse_rows():
    # a whole table swept window by window; the first window gives some
    # rows a run from the table, some a run of their own and the rest the
    # batched write
    n, width, cap = 2000, 1 << 18, products._RUN_CAP
    total = 0
    for lo in range(1, n * n + 1, width):
        hi = min(lo + width - 1, n * n)
        got = _count_window((n, lo, hi))
        assert got == window_oracle(n, lo, hi), (lo, hi)
        total += got
        if lo == 1:
            kinds = {
                (c >= DENSE_ROW_MIN) + (c >= cap) for c in row_counts(n, lo, hi).values()
            }
            assert kinds == {0, 1, 2}
    assert total == CENSUS_COUNTS[2000]


def test_count_window_run_of_wrong_length_raises(monkeypatch):
    # every strided write checks its run's length: one product too many
    # raises ValueError in a strided row and BufferError in row 1, whose
    # step-1 write would otherwise resize the window
    runs = [bytearray(b"\x01") * (c + 1) for c in range(products._RUN_CAP)]
    monkeypatch.setattr(products, "_runs", lambda: runs)
    n = 2000
    counts = row_counts(n, 1001, 1200)
    assert all(a > 1 for _, a in counts) and counts[0, 3] >= DENSE_ROW_MIN
    with pytest.raises(ValueError, match="extended slice"):
        _count_window((n, 1001, 1200))
    assert set(row_counts(n, 1, 100)) == {(0, 1)}
    with pytest.raises(BufferError):
        _count_window((n, 1, 100))


def test_least_prime_factors_match_trial_division():
    top = 1 << 16
    expect = np.array([least_prime_factor(a) for a in range(top + 1)])
    for n in range(1, 5001):
        assert np.array_equal(_least_prime_factors(n), expect[: n + 1]), n
    table = _least_prime_factors(top)
    assert table.dtype == np.int32 and np.array_equal(table, expect)


@given(st.integers(1, 300), st.data())
def test_count_window_matches_bitmap(n, data):
    lo = data.draw(st.integers(1, n * n))
    width = data.draw(st.integers(1, n * n - lo + 10))
    hi = lo + width - 1
    assert _count_window((n, lo, hi)) == window_oracle(n, lo, hi)


def test_segmented_equals_dense(monkeypatch):
    for n in (1, 2, 17, 256, 257, 1000):
        expect = count_distinct_dense(n)
        for bits in (1 << 16, 1 << 20):
            monkeypatch.setattr(products, "SEGMENT_WINDOW", bits)
            assert count_distinct_segmented(n) == expect, (n, bits)


def test_segmented_rejects_empty_table():
    with pytest.raises(ValueError):
        count_distinct_segmented(0)


def test_oversized_table_is_rejected_up_front(monkeypatch):
    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(products, "_window_ranges", no_window)
    for n in (COUNT_N_MAX + 1, 10**7):
        with pytest.raises(ValueError, match=str(COUNT_N_MAX)):
            count_distinct_segmented(n)
    # census checks the whole list before it counts its first window
    monkeypatch.setattr(products, "_count_window", no_window)
    with pytest.raises(ValueError, match=str(COUNT_N_MAX)):
        census([10, COUNT_N_MAX + 1])


def test_parallel_invariant(monkeypatch):
    for n in (100, 1500):
        serial = count_distinct_segmented(n)
        with monkeypatch.context() as m:
            m.setattr(products, "POOL_MIN_WINDOWS", 1)
            assert count_distinct_segmented(n) == serial


def _no_fan_out(*args, **kwargs):
    raise AssertionError("a worker was forked")


def test_parallel_on_one_usable_cpu_starts_no_pool(monkeypatch):
    monkeypatch.setattr(products, "POOL_MIN_WINDOWS", 1)
    monkeypatch.setattr(products.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(products, "_fan_out", _no_fan_out)
    assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]


def _first_n_with_windows(count):
    """The least n whose table [1, n^2] spans count windows."""
    return math.isqrt((count - 1) * products.SEGMENT_WINDOW) + 1


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the fan-outs that counts start; each fan-out
    counts every worker's interleaved share in this process and returns
    one (count, seconds) pair per window, in the order of the jobs."""
    started = []

    def serial_fan_out(jobs, workers):
        started.append(workers)
        shares = [jobs[k::workers] for k in range(workers)]
        assert sorted(job for share in shares for job in share) == sorted(jobs)
        replies = [None] * len(jobs)
        for k, share in enumerate(shares):
            replies[k::workers] = map(products._timed_window, share)
        return replies

    monkeypatch.setattr(products, "_fan_out", serial_fan_out)
    return started


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(
        products.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )


def test_pool_starts_at_the_window_threshold(monkeypatch, pools):
    n = _first_n_with_windows(products.POOL_MIN_WINDOWS)
    assert len(_window_ranges(1, (n - 1) ** 2, products.SEGMENT_WINDOW)) == (
        products.POOL_MIN_WINDOWS - 1
    )
    assert len(_window_ranges(1, n * n, products.SEGMENT_WINDOW)) == (
        products.POOL_MIN_WINDOWS
    )
    _usable_cpus(monkeypatch, 16)
    assert len(_window_ranges(1, 5000**2, products.SEGMENT_WINDOW)) == 24
    assert count_distinct_segmented(5000) == CENSUS_COUNTS[5000]
    count_distinct_segmented(n - 1)
    assert pools == []
    pooled = count_distinct_segmented(n)
    assert pools == [8]
    # one usable CPU counts in this process, also past the threshold
    _usable_cpus(monkeypatch, 1)
    assert count_distinct_segmented(n) == pooled
    assert pools == [8]


def test_readme_states_the_fork_threshold():
    # every value README.md gives POOL_MIN_WINDOWS, and the least n it
    # states for it, are the constant's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = " ".join(readme.split())
    values = re.findall(r"POOL_MIN_WINDOWS`? = (\d+)", text)
    stated = re.findall(r"POOL_MIN_WINDOWS` = (\d+) windows,? \(?n >= (\d+)", text)
    assert len(stated) >= 2 and len(values) == len(stated)
    threshold = products.POOL_MIN_WINDOWS
    assert set(stated) == {(str(threshold), str(_first_n_with_windows(threshold)))}


def test_pool_has_one_worker_per_usable_cpu_up_to_eight(monkeypatch, pools):
    monkeypatch.setattr(products, "POOL_MIN_WINDOWS", 1)
    for cpus in (2, 3, 8, 9, 64):
        _usable_cpus(monkeypatch, cpus)
        assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]
    assert pools == [2, 3, 8, 8, 8]


def test_cpu_count_fallback_without_affinity(monkeypatch, pools):
    # a platform without os.sched_getaffinity sizes the fan-out from
    # os.cpu_count(), and counts in this process when that is unknown
    monkeypatch.delattr(products.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(products, "POOL_MIN_WINDOWS", 1)
    monkeypatch.setattr(products.os, "cpu_count", lambda: None)
    assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]
    assert pools == []
    monkeypatch.setattr(products.os, "cpu_count", lambda: 4)
    assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]
    assert pools == [4]


def _windows(*ns):
    return [
        (n, lo, hi)
        for n in ns
        for lo, hi in _window_ranges(1, n * n, products.SEGMENT_WINDOW)
    ]


def test_census_counts_its_uncached_tables_in_one_fan_out(tmp_path, monkeypatch, pools):
    # 10 is asked twice and 2000 is cached: the one fan-out holds every
    # window of 10 and 5000, each once, and nothing of 2000
    path = tmp_path / "census.csv"
    save_cache(path, {2000: CENSUS_COUNTS[2000]})
    monkeypatch.setattr(products, "POOL_MIN_WINDOWS", 1)
    _usable_cpus(monkeypatch, 2)
    fanned = []
    fan_out = products._fan_out
    monkeypatch.setattr(
        products,
        "_fan_out",
        lambda jobs, workers: fanned.append(list(jobs)) or fan_out(jobs, workers),
    )
    points = census([10, 5000, 10, 2000], cache_path=path)
    assert [p.distinct_count for p in points] == [
        count_distinct_dense(10),
        CENSUS_COUNTS[5000],
        count_distinct_dense(10),
        CENSUS_COUNTS[2000],
    ]
    assert pools == [2]
    (jobs,) = fanned
    assert sorted(jobs) == _windows(10, 5000)
    assert load_cache(path) == {
        10: count_distinct_dense(10), 2000: CENSUS_COUNTS[2000], 5000: CENSUS_COUNTS[5000]
    }


def test_small_census_forks_nothing(monkeypatch):
    # fewer windows in all than POOL_MIN_WINDOWS: counted in this process
    n_values = [10, 50, 100, 1000, 2000, 3000]
    assert len(_windows(*n_values)) < products.POOL_MIN_WINDOWS
    _usable_cpus(monkeypatch, 8)
    monkeypatch.setattr(products, "_fan_out", _no_fan_out)
    assert [p.distinct_count for p in census(n_values)] == [
        CENSUS_COUNTS[n] for n in n_values
    ]


def test_readme_census_is_one_fan_out(monkeypatch, pools):
    # the README's n-list spans 57 windows, none of them alone enough to
    # fork: together they are counted in one fan-out
    n_values = [10, 50, 100, 1000, 2000, 3000, 4000, 5000]
    assert len(_windows(*n_values)) == 57
    assert max(len(_windows(n)) for n in n_values) < products.POOL_MIN_WINDOWS
    _usable_cpus(monkeypatch, 2)
    points = census(n_values)
    assert [p.distinct_count for p in points] == [CENSUS_COUNTS[n] for n in n_values]
    assert pools == [2]


def test_census_elapsed_splits_the_counting_by_window_seconds(monkeypatch):
    # each window of 100 reports 1 s and each of 2000 (4 windows) 3 s: the
    # counting's wall time is split 1 : 12, and the repeat of 100 gets
    # the time of its lookup
    real = products._count_window
    monkeypatch.setattr(
        products, "_timed_window", lambda job: (real(job), 1.0 if job[0] == 100 else 3.0)
    )
    start = time.perf_counter()
    first, second, repeat = census([100, 2000, 100])
    wall = time.perf_counter() - start
    assert (first.n, second.n, repeat.n) == (100, 2000, 100)
    assert second.elapsed == pytest.approx(12 * first.elapsed)
    assert 0 < first.elapsed + second.elapsed <= wall
    assert 0 <= repeat.elapsed < first.elapsed


def test_census_elapsed_of_one_computed_point_is_the_counting_time(monkeypatch):
    # one computed n takes the whole counting time, forked or not
    for threshold in (1, 10**9):
        monkeypatch.setattr(products, "POOL_MIN_WINDOWS", threshold)
        start = time.perf_counter()
        (point,) = census([3000])
        assert 0 < point.elapsed <= time.perf_counter() - start


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """Counts fork two workers, however few their windows."""
    monkeypatch.setattr(products, "POOL_MIN_WINDOWS", 1)
    _usable_cpus(monkeypatch, 2)
    _assert_no_child_process()
    yield
    _assert_no_child_process()


def _window_that_raises(args):
    raise RuntimeError(f"window {args} failed")


def test_worker_error_raises_with_its_message(monkeypatch, forked):
    monkeypatch.setattr(products, "_count_window", _window_that_raises)
    with pytest.raises(
        RuntimeError, match=r"RuntimeError: window \(2000, 1, \d+\) failed"
    ):
        count_distinct_segmented(2000)


def test_fan_out_replies_one_count_and_time_per_window(forked):
    jobs = _windows(10, 2000, 100)
    replies = products._fan_out(jobs, 3)
    assert [count for count, _ in replies] == [_count_window(job) for job in jobs]
    assert all(seconds > 0 for _, seconds in replies)


def test_workers_with_empty_shares_reply(monkeypatch, forked):
    # 8 workers on 4 windows, and on 1: the children with no window reply
    # with no pairs and exit 0
    _usable_cpus(monkeypatch, 8)
    assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]
    (point,) = census([10])
    assert point.distinct_count == count_distinct_dense(10)


def test_batched_census_worker_error_keeps_the_cache(tmp_path, monkeypatch, forked):
    # a window that fails in a worker ends the census with RuntimeError,
    # reaps every child and leaves the cache file as it was
    path = tmp_path / "census.csv"
    census([10, 50], cache_path=path)
    before = path.stat()
    data = path.read_bytes()
    monkeypatch.setattr(products, "_count_window", _window_that_raises)
    with pytest.raises(RuntimeError, match=r"RuntimeError: window \(\d+, 1, \d+\) failed"):
        census([10, 50, 100, 2000], cache_path=path)
    _assert_no_child_process()
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert path.read_bytes() == data


def test_worker_that_dies_without_a_count_raises(monkeypatch, forked):
    # worker 0 counts its share, worker 1 exits at its first window
    # without writing: the count raises, and does not return worker 0's sum
    real = products._count_window
    monkeypatch.setattr(
        products,
        "_count_window",
        lambda args: os._exit(3) if args[1] > 1 else real(args),
    )
    with pytest.raises(RuntimeError, match=r"without a count \(exit code 3\)"):
        count_distinct_segmented(2000)


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted


def test_pool_leaves_no_child_process(monkeypatch, forked):
    assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]
    _assert_no_child_process()
    # a window that raises in a worker ends the count, and the workers too
    with monkeypatch.context() as m:
        m.setattr(products, "_count_window", _window_that_raises)
        with pytest.raises(RuntimeError, match="failed"):
            count_distinct_segmented(2000)
    _assert_no_child_process()
    # the workers hang; an alarm interrupts the caller while it waits for
    # them, and the count kills and reaps both before the exception leaves
    monkeypatch.setattr(products, "_count_window", lambda args: time.sleep(60))
    previous = signal.signal(signal.SIGALRM, _interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        start = time.monotonic()
        with pytest.raises(_Interrupted):
            count_distinct_segmented(2000)
        assert time.monotonic() - start < 30
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_process()


_IMPORT_GUARD = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
import mtable.cli
from mtable import products
real, fanned = products._fan_out, []
products._fan_out = lambda jobs, workers: fanned.append(workers) or real(jobs, workers)
assert mtable.cli.run(["count", "--n", "16384"]) == 0
assert fanned == [2], fanned
assert mtable.cli.run(["count", "--n", "5000"]) == 0
assert fanned == [2], fanned
print(sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"))
"""


def test_forked_count_imports_no_multiprocessing():
    # a fresh interpreter with 2 usable CPUs fans M(2^14) out, counts
    # M(5000) in one process, and never imports multiprocessing, whose
    # import alone takes about 5 ms
    src = os.path.dirname(os.path.dirname(os.path.abspath(products.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    count, small, modules = proc.stdout.splitlines()
    assert count.startswith("M(16384) = 59415059 ")
    assert small.startswith(f"M(5000) = {CENSUS_COUNTS[5000]} ")
    assert modules == "[]"


def test_census_point_fields():
    (point,) = census([100])
    assert point.n == 100
    assert point.distinct_count == 2906
    assert point.density == 2906 / 10000
    assert point.mean_multiplicity == 10000 / 2906
    assert point.elapsed >= 0.0


def test_census_trivial_table():
    (point,) = census([1])
    assert point.distinct_count == 1
    assert point.density == 1.0


def test_census_matches_dense_oracle():
    for point in census([1, 2, 8192]):
        assert point.distinct_count == count_distinct_dense(point.n), point.n


def test_census_rejects_implausible_count():
    with pytest.raises(ValueError):
        TableCensus.from_count(10, 9, 0.0)
    with pytest.raises(ValueError):
        TableCensus.from_count(10, 101, 0.0)


def test_cache_round_trip(tmp_path):
    path = tmp_path / "census.csv"
    save_cache(path, {100: 2906, 10: 42})
    assert path.read_text() == "n,m\n10,42\n100,2906\n"
    assert load_cache(path) == {10: 42, 100: 2906}


def test_save_cache_failure_keeps_previous_file(tmp_path, monkeypatch):
    # a write that fails after the header must leave the old cache
    # intact and no temporary file beside it
    path = tmp_path / "census.csv"
    save_cache(path, {10: 42})
    before = path.read_bytes()
    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, fh):
            self.inner = real_writer(fh)

        def writerow(self, row):
            if row != ["n", "m"]:
                raise OSError("disk full")
            self.inner.writerow(row)

    monkeypatch.setattr(csv, "writer", FailingWriter)
    with pytest.raises(OSError, match="disk full"):
        save_cache(path, {10: 42, 100: 2906})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["census.csv"]


def test_census_extends_cache(tmp_path):
    path = tmp_path / "census.csv"
    census([10, 100], cache_path=path)
    assert load_cache(path) == {10: 42, 100: 2906}
    census([50], cache_path=path)
    assert load_cache(path) == {10: 42, 50: 800, 100: 2906}


def test_read_only_census_leaves_cache_untouched(tmp_path):
    path = tmp_path / "census.csv"
    census([10, 50], cache_path=path)
    before = path.stat()
    data = path.read_bytes()
    census([10, 50], cache_path=path)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert path.read_bytes() == data
    # a run that computes a new n still writes the file
    census([10, 50, 100], cache_path=path)
    assert path.stat().st_ino != before.st_ino
    assert load_cache(path) == {10: 42, 50: 800, 100: 2906}


def _census_in_step(barrier, n_values, path):
    # count no window until every writer has read the cache
    real, waited = products._count_window, []

    def count_after_barrier(args):
        if not waited:
            barrier.wait(timeout=60)
            waited.append(True)
        return real(args)

    products._count_window = count_after_barrier
    census(n_values, cache_path=path)


def test_concurrent_census_writers_keep_all_entries(tmp_path):
    # every writer reads the cache before any writes, so a writer that
    # wrote only what it had read and counted would drop the others'
    # entries; three writers on two cores
    path = tmp_path / "census.csv"
    ctx = multiprocessing.get_context("spawn")
    lists = ([10, 100], [50, 200], [20, 150])
    barrier = ctx.Barrier(len(lists))
    writers = [
        ctx.Process(target=_census_in_step, args=(barrier, n_values, path))
        for n_values in lists
    ]
    for w in writers:
        w.start()
    for w in writers:
        w.join(120)
    assert [w.exitcode for w in writers] == [0] * len(lists)
    assert load_cache(path) == {
        n: count_distinct_dense(n) for n_values in lists for n in n_values
    }


def test_census_merges_entries_written_meanwhile(tmp_path, monkeypatch):
    # another writer saves 50 while this census counts 10: both survive;
    # when it saves a different M(10), the cache counts as corrupt and
    # this census's entries replace it
    path = tmp_path / "census.csv"
    real = products._count_window
    meanwhile = {}

    def count_while_another_writes(args):
        save_cache(path, meanwhile)
        return real(args)

    monkeypatch.setattr(products, "_count_window", count_while_another_writes)
    meanwhile.update({50: 800})
    census([10], cache_path=path)
    assert load_cache(path) == {10: 42, 50: 800}
    path.unlink()
    meanwhile.update({10: 41})
    with pytest.warns(UserWarning, match="conflicting entries for n = \\[10\\]"):
        point, _ = census([10, 100], cache_path=path)
    assert point.distinct_count == 42
    assert load_cache(path) == {10: 42, 100: 2906}


def test_census_rejects_large_n_when_cached(tmp_path):
    # checked on entry, not only when a count runs: a plausible entry
    # past COUNT_N_MAX is in the cache, and still rejected
    path = tmp_path / "census.csv"
    n = COUNT_N_MAX + 1
    save_cache(path, {n: 2 * n - 1})
    with pytest.raises(ValueError, match=str(COUNT_N_MAX)):
        census([n], cache_path=path)


def test_census_trusts_stored_counts(tmp_path):
    # the cache stores raw counts only; a plausible entry is not
    # second-guessed, so a stale value survives until it is deleted
    path = tmp_path / "census.csv"
    path.write_text("n,m\n10,41\n")
    (point,) = census([10], cache_path=path)
    assert point.distinct_count == 41


def test_census_recovers_from_corrupt_cache(tmp_path):
    path = tmp_path / "census.csv"
    path.write_text("n;m\n10;42\n")
    with pytest.warns(UserWarning, match="recomputing"):
        (point,) = census([10], cache_path=path)
    assert point.distinct_count == 42
    assert load_cache(path) == {10: 42}


def test_load_cache_accepts_consistent_duplicates(tmp_path):
    path = tmp_path / "cache.csv"
    path.write_text("n,m\n10,42\n10,42\n")
    assert load_cache(path) == {10: 42}


@pytest.mark.parametrize(
    "body",
    [
        "k,m\n10,42\n",
        "n,m\n10\n",
        "n,m\n10,forty\n",
        "n,m\n10,9\n",
        "n,m\n10,101\n",
        "n,m\n0,1\n",
        "n,m\n10,42\n10,43\n",
    ],
)
def test_load_cache_rejects_malformed(tmp_path, body):
    path = tmp_path / "cache.csv"
    path.write_text(body)
    with pytest.raises(_CacheError):
        load_cache(path)


def test_prefix_matches_dense():
    counts = prefix_counts(300)
    assert len(counts) == 301 and counts[0] == 0
    for n in range(1, 301):
        assert counts[n] == count_distinct_dense(n), n


def test_prefix_matches_census_counts():
    counts = prefix_counts(max(CENSUS_COUNTS))
    for n, m in CENSUS_COUNTS.items():
        assert counts[n] == m, n
