"""Distinct-product counting: segmented route vs the dense oracle, census, cache."""

import csv
import math
import multiprocessing
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import count_distinct_dense, product_bitmap
from test_acceptance import CENSUS_COUNTS

from mtable import products
from mtable.products import (
    COUNT_N_MAX,
    DENSE_ROW_MIN,
    PREFIX_N_MAX,
    TableCensus,
    _CacheError,
    _count_window,
    _least_prime_factors,
    _row_starts,
    _window_ranges,
    census,
    count_distinct_segmented,
    distinct_count_prefix,
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


def window_oracle(n, lo, hi):
    """Distinct products of the n-table in [lo, hi], from the dense bitmap."""
    return int(np.count_nonzero(_bitmap(n)[lo : hi + 1]))


def least_prime_factor(a):
    """p(a) by trial division, with p(0) = 0 and p(1) = 1."""
    if a < 2:
        return a
    return next((d for d in range(2, math.isqrt(a) + 1) if a % d == 0), a)


def row_counts(n, lo, hi):
    """Products row a puts into [lo, hi], for every row that puts any
    there: row 1 takes every b, row a > 1 the b >= a with b > n//p(a)."""
    counts = {}
    for a in range(1, n + 1):
        first = max(a, -(-lo // a), 1 if a == 1 else n // least_prime_factor(a) + 1)
        c = min(n, hi // a) - first + 1
        if c > 0:
            counts[a] = c
    return counts


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
    # a_lo = ceil(lo/n) > a_hi = min(n, isqrt(hi)): inside the table
    # ([91, 99] at n = 10) and above it
    for n, lo, hi in (
        (10, 91, 99), (10, 99, 99), (3, 10, 10), (100, 10**4 + 1, 10**4 + 500),
    ):
        assert -(-lo // n) > min(n, math.isqrt(hi))
        assert _count_window((n, lo, hi)) == 0
    # rows in range, yet each misses the window: row 9 at n = 10 holds
    # 81 and 90, not 83
    assert row_counts(10, 83, 83) == {}
    assert _count_window((10, 83, 83)) == 0


def test_count_window_cut_off_boundary():
    # a window holding exactly cut-off - 1 and exactly cut-off products of
    # row a, so both the batched and the strided write run, and meet at
    # the boundary
    n, a = 300, 3
    for width in (DENSE_ROW_MIN - 1, DENSE_ROW_MIN):
        lo = a * 101
        hi = a * (101 + width - 1)
        counts = row_counts(n, lo, hi)
        assert counts[a] == width
        assert {c >= DENSE_ROW_MIN for c in counts.values()} == {False, True}
        assert _count_window((n, lo, hi)) == window_oracle(n, lo, hi)
        # the same row again, starting between two of its products
        assert _count_window((n, lo + 1, hi + 1)) == window_oracle(n, lo + 1, hi + 1)


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
            if n == 300:
                kinds.update(c >= DENSE_ROW_MIN for c in row_counts(n, lo, hi).values())
        assert total == count_distinct_dense(n), n
    # strided and batched rows both occurred
    assert kinds == {False, True}


def test_count_window_row_start_boundary():
    # windows that start or end at a * (n//p(a)), the last product the
    # row start leaves out, and at a * (n//p(a) + 1), its first one: a
    # even, odd composite with p = 3 and p = 5, prime, and a = 1, whose
    # row starts at b = 1 (its boundary is the row's end, n)
    n = 299
    for a, p in ((12, 2), (21, 3), (35, 5), (13, 13), (1, 1)):
        assert least_prime_factor(a) == p
        q = n // p
        if a > 1:
            assert row_counts(n, a * q, a * q).get(a) is None
            assert row_counts(n, a * (q + 1), a * (q + 1))[a] == 1
        for x in (a * q, a * (q + 1)):
            for width in (1, 2, a + 1, DENSE_ROW_MIN, 4 * DENSE_ROW_MIN * a, 5000):
                for lo, hi in ((x, x + width - 1), (max(1, x - width + 1), x)):
                    assert _count_window((n, lo, hi)) == window_oracle(n, lo, hi), (
                        a, lo, hi,
                    )


def test_count_window_run_cap_boundary():
    # a window holding exactly cap - 1, cap and cap + 1 products of row a:
    # the strided write takes its run from the table below the cap and
    # builds it at and above; row 2 starts at b = 1001, row 3 at b = 667
    n, cap = 2000, products._RUN_CAP
    for a, b in ((2, 1001), (3, 700)):
        for width in (cap - 1, cap, cap + 1):
            lo, hi = a * b, a * (b + width - 1)
            assert row_counts(n, lo, hi)[a] == width
            assert _count_window((n, lo, hi)) == window_oracle(n, lo, hi)
            # the same row again, starting between two of its products
            assert _count_window((n, lo + 1, hi + 1)) == window_oracle(n, lo + 1, hi + 1)


def test_count_window_row_one():
    # row 1 is a step-1 write, a contiguous slice of the window's buffer
    # while the numpy view of that buffer exists; it holds fewer products
    # than the cap, more, or all n
    n = 2000
    for lo, hi in ((1, DENSE_ROW_MIN), (1, 600), (37, 1999), (1, n), (5, 2 * n)):
        assert row_counts(n, lo, hi)[1] >= DENSE_ROW_MIN
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
    counts = row_counts(n, 2002, 2200)
    assert 1 not in counts and counts[2] >= DENSE_ROW_MIN
    with pytest.raises(ValueError, match="extended slice"):
        _count_window((n, 2002, 2200))
    assert set(row_counts(n, 1, 100)) == {1}
    with pytest.raises(BufferError):
        _count_window((n, 1, 100))


def test_least_prime_factors_match_trial_division():
    top = 1 << 16
    expect = np.array([least_prime_factor(a) for a in range(top + 1)])
    for n in range(1, 5001):
        assert np.array_equal(_least_prime_factors(n), expect[: n + 1]), n
    table = _least_prime_factors(top)
    assert table.dtype == np.int32 and np.array_equal(table, expect)


def test_row_starts_follow_least_prime_factors():
    for n in (1, 2, 12, 299, 5000):
        starts = _row_starts(n)
        assert not starts.flags.writeable
        assert starts[1:].tolist() == [1] + [
            max(a, n // least_prime_factor(a) + 1) for a in range(2, n + 1)
        ], n


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
    # census checks the whole list before it counts its first n
    monkeypatch.setattr(products, "count_distinct_segmented", no_window)
    with pytest.raises(ValueError, match=str(COUNT_N_MAX)):
        census([10, COUNT_N_MAX + 1])


def test_parallel_invariant(monkeypatch):
    for n in (100, 1500):
        serial = count_distinct_segmented(n)
        with monkeypatch.context() as m:
            m.setattr(products, "POOL_MIN_WINDOWS", 1)
            assert count_distinct_segmented(n) == serial


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was started")


def test_parallel_on_one_usable_cpu_starts_no_pool(monkeypatch):
    monkeypatch.setattr(products, "POOL_MIN_WINDOWS", 1)
    monkeypatch.setattr(products.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]


def _first_n_with_windows(count):
    """The least n whose table [1, n^2] spans count windows."""
    return math.isqrt((count - 1) * products.SEGMENT_WINDOW) + 1


@pytest.fixture
def pools(monkeypatch):
    """The sizes of the pools that counts start; each pool maps in this
    process."""
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return list(map(func, jobs))

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
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


def test_pool_has_one_worker_per_usable_cpu_up_to_eight(monkeypatch, pools):
    monkeypatch.setattr(products, "POOL_MIN_WINDOWS", 1)
    for cpus in (2, 3, 8, 9, 64):
        _usable_cpus(monkeypatch, cpus)
        assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]
    assert pools == [2, 3, 8, 8, 8]


def test_cpu_count_fallback_without_affinity(monkeypatch, pools):
    # a platform without os.sched_getaffinity sizes the pool from
    # os.cpu_count(), and counts in this process when that is unknown
    monkeypatch.delattr(products.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(products, "POOL_MIN_WINDOWS", 1)
    monkeypatch.setattr(products.os, "cpu_count", lambda: None)
    assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]
    assert pools == []
    monkeypatch.setattr(products.os, "cpu_count", lambda: 4)
    assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]
    assert pools == [4]


def _window_that_raises(args):
    raise RuntimeError(f"window {args} failed")


def test_pool_leaves_no_child_process(monkeypatch):
    monkeypatch.setattr(products, "POOL_MIN_WINDOWS", 1)
    _usable_cpus(monkeypatch, 2)
    assert count_distinct_segmented(2000) == CENSUS_COUNTS[2000]
    assert multiprocessing.active_children() == []
    # a window that raises in a worker ends the count, and the pool too
    monkeypatch.setattr(products, "_count_window", _window_that_raises)
    with pytest.raises(RuntimeError, match="failed"):
        count_distinct_segmented(2000)
    assert multiprocessing.active_children() == []


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
    # count nothing until every writer has read the cache
    real = products.count_distinct_segmented

    def count_after_barrier(*args, **kwargs):
        barrier.wait(timeout=60)
        return real(*args, **kwargs)

    products.count_distinct_segmented = count_after_barrier
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
    real = products.count_distinct_segmented
    meanwhile = {}

    def count_while_another_writes(*args, **kwargs):
        save_cache(path, meanwhile)
        return real(*args, **kwargs)

    monkeypatch.setattr(
        products, "count_distinct_segmented", count_while_another_writes
    )
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
    counts = distinct_count_prefix(300)
    assert len(counts) == 301 and counts[0] == 0
    for n in range(1, 301):
        assert counts[n] == count_distinct_dense(n), n


def test_prefix_matches_census_counts():
    counts = distinct_count_prefix(max(CENSUS_COUNTS))
    for n, m in CENSUS_COUNTS.items():
        assert counts[n] == m, n


def test_prefix_rejects_out_of_range():
    for n_max in (0, PREFIX_N_MAX + 1):
        with pytest.raises(ValueError):
            distinct_count_prefix(n_max)
