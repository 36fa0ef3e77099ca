"""Distinct-product counting: segmented route vs the dense oracle, census, cache."""

import csv

import pytest
from oracles import count_distinct_dense
from test_acceptance import CENSUS_COUNTS

from mtable import products
from mtable.products import (
    PREFIX_N_MAX,
    SEGMENT_BITS_DEFAULT,
    SEGMENT_BITS_MIN,
    TableCensus,
    _CacheError,
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
        ranges = _window_ranges(1, n * n, SEGMENT_BITS_MIN)
        assert ranges[0][0] == 1
        assert ranges[-1][1] == n * n
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert lo == hi + 1


def test_segmented_equals_dense():
    for n in (1, 2, 17, 256, 257, 1000):
        expect = count_distinct_dense(n)
        for bits in (SEGMENT_BITS_MIN, SEGMENT_BITS_DEFAULT):
            assert count_distinct_segmented(n, bits) == expect, (n, bits)


def test_segmented_rejects_small_window():
    with pytest.raises(ValueError):
        count_distinct_segmented(100, SEGMENT_BITS_MIN - 1)
    with pytest.raises(ValueError):
        count_distinct_segmented(0)


def test_parallel_invariant():
    for n in (100, 1500):
        serial = count_distinct_segmented(n)
        assert count_distinct_segmented(n, parallel=True) == serial


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

    monkeypatch.setattr(products.csv, "writer", FailingWriter)
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


def test_census_rejects_small_window_when_cached(tmp_path):
    # checked on entry, not only when a count runs
    path = tmp_path / "census.csv"
    census([10], cache_path=path)
    with pytest.raises(ValueError, match=str(SEGMENT_BITS_MIN)):
        census([10], cache_path=path, segment_bits=SEGMENT_BITS_MIN - 1)


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
