"""Partial zeta sums and the three-route square identity."""

import math

import numpy as np
import pytest
from oracles import (
    grown_with_extra_count,
    per_call_identities_sweep,
    square_identity_sums,
    table_multiplicities_formula,
    zeta_square_truncation_partial,
)

from mtable import multiplicity, series
from mtable.multiplicity import table_multiplicities


def test_zeta_partial_exact_paths():
    assert series.zeta_partial(0, 7) == 7
    assert series.zeta_partial(-1, 7) == 28
    assert series.zeta_partial(0, 500) == 500
    assert series.zeta_partial(-1, 500) == 500 * 501 // 2


def test_zeta_partial_harmonic():
    h4 = series.zeta_partial(1, 4)
    assert h4.imag == 0.0
    assert h4.real == pytest.approx(25 / 12, rel=1e-15)


def test_zeta_partial_tail_behavior():
    # zeta(2) minus the partial to N is 1/N - 1/(2 N^2) + O(N^-3)
    p = series.zeta_partial(2, 10**4).real
    assert abs(math.pi**2 / 6 - p - 1e-4 + 0.5e-8) < 1e-9


def test_zeta_partial_rejects_bad_n():
    with pytest.raises(ValueError):
        series.zeta_partial(2, 0)


def test_identity_exact_exponents():
    for n in (1, 2, 10, 37):
        for s in (0, -1):
            cmp = series.verify_square_identity(s, n)
            assert cmp.max_abs_deviation == 0.0, (s, n)
            assert cmp.grid_sum == cmp.zeta_partial_squared == cmp.multiplicity_sum
    assert series.verify_square_identity(0, 10).grid_sum == 100
    assert series.verify_square_identity(-1, 10).grid_sum == 55**2


def test_identity_float_exponents():
    for s in (2, 3, 2 + 3j):
        cmp = series.verify_square_identity(s, 100)
        assert cmp.max_abs_deviation <= 1e-12 * abs(cmp.zeta_partial_squared), s


def test_identity_tolerance_and_verdict(monkeypatch):
    for s in (0, -1):
        cmp = series.verify_square_identity(s, 30)
        assert (cmp.tolerance, cmp.ok) == (0.0, True)
    for s in (2, 2 + 3j):
        cmp = series.verify_square_identity(s, 30)
        assert cmp.tolerance == 1e-9 * abs(cmp.zeta_partial_squared) > 0
        assert cmp.ok is True
    # a grid route off by 1e-6 at the float exponents fails the 1e-9
    # relative tolerance
    grid_route = series._grid_route

    def off_grid(s, n_max):
        return grid_route(s, n_max) + (0.0 if s in (0, -1) else 1e-6)

    monkeypatch.setattr(series, "_grid_route", off_grid)
    cmp = series.verify_square_identity(2, 30)
    assert cmp.max_abs_deviation > cmp.tolerance
    assert cmp.ok is False
    # and the identities sweep reports it at every float exponent
    reports = series.verify_identities_sweep(1)
    assert [r.quantity for r in reports] == [
        "square_identity_s_2",
        "square_identity_s_3",
        "square_identity_s_(2+3j)",
    ]
    for r in reports:
        assert r.violated and r.margin == r.bound - r.value < 0


def test_identities_sweep_reports_table_sum_failure(monkeypatch):
    # a count at 0 in the 2-table adds one to the plain table sum, which
    # is also the multiplicity route at s = 0, and nothing to the weighted
    # sum or to any other route: 0 weighs 0 at s = -1 and, being no
    # product, has no power at the float exponents
    monkeypatch.setattr(series, "_grown_tables", grown_with_extra_count(0, at_n=2))
    reports = series.verify_identities_sweep(3)
    assert [(r.argument, r.quantity, r.value, r.bound, r.margin) for r in reports] == [
        (2, "table_sum", 5.0, 4.0, -1.0),
        (2, "square_identity_s_0", 1.0, 0.0, -1.0),
    ]
    assert all(r.violated and not r.borderline for r in reports)


def test_identities_sweep_cap_keeps_table_sums_exact():
    # the sweep keeps both table sums as complex128; below 2**53 every
    # integer is exact there, so the reported floats are the integers
    n = series.IDENTITY_SWEEP_N_MAX
    assert (n * (n + 1) // 2) ** 2 < 2**53


def _bits(cmp):
    # every field of a comparison, floats and complex parts as hex
    def key(v):
        if isinstance(v, complex):
            return (v.real.hex(), v.imag.hex())
        return v.hex() if isinstance(v, float) else v

    return tuple(key(getattr(cmp, f)) for f in cmp.__dataclass_fields__)


EXPONENTS = (0, -1, 2, 3, 2 + 3j)


def _record_routes(monkeypatch):
    # {s: the arrays _identity_routes returns for s}, filled as it runs
    routes = {}
    identity_routes = series._identity_routes

    def recording(s, ns, mult):
        routes[s] = identity_routes(s, ns, mult)
        return routes[s]

    monkeypatch.setattr(series, "_identity_routes", recording)
    return routes


def test_identities_sweep_matches_per_call_oracle(monkeypatch):
    # the sweep grows one table through every n and takes each exponent's
    # routes at every n from one pass; each comparison must be
    # verify_square_identity's own, bit for bit, and the reports those
    # built from them.  The grid route is pushed off at a few (s, n) and
    # the 12-table counts the product 6 once too often, in the builder
    # both the sweep and table_multiplicities read, so the reports are not
    # all empty.
    grid_route = series._grid_route

    def off_grid(s, n_max):
        shift = np.isin(np.arange(1, n_max + 1), (7, 31)) * 1e-6
        return grid_route(s, n_max) + (0.0 if s in (0, -1) else shift)

    monkeypatch.setattr(series, "_grid_route", off_grid)
    extra = grown_with_extra_count(6, at_n=12)
    monkeypatch.setattr(series, "_grown_tables", extra)
    monkeypatch.setattr(multiplicity, "_grown_tables", extra)
    reports, comparisons = per_call_identities_sweep(40)
    routes = _record_routes(monkeypatch)
    assert series.verify_identities_sweep(40) == reports
    shared = [
        series._comparison(complex(s), n, routes[complex(s)], n - 1)
        for n in range(1, 41)
        for s in EXPONENTS
    ]
    assert [_bits(c) for c in shared] == [_bits(c) for c in comparisons]
    assert [(r.argument, r.quantity) for r in reports] == [
        (7, "square_identity_s_2"),
        (7, "square_identity_s_3"),
        (7, "square_identity_s_(2+3j)"),
        (12, "table_sum"),
        (12, "table_sum_weighted"),
        *((12, f"square_identity_s_{s}") for s in EXPONENTS),
        (31, "square_identity_s_2"),
        (31, "square_identity_s_3"),
        (31, "square_identity_s_(2+3j)"),
    ]
    assert [(r.value, r.bound, r.margin) for r in reports[3:7]] == [
        (145.0, 144.0, -1.0),
        (6090.0, 6084.0, -6.0),
        (1.0, 0.0, -1.0),
        (6.0, 0.0, -6.0),
    ]


def test_square_identity_matches_sweep_at_band_edges(monkeypatch):
    # one check at n runs the grid and zeta routes to n; the sweep's run
    # on to 130, so its bands of _ROW_BLOCK = 128 table sizes end
    # elsewhere than each check's, and must give the same comparison bit
    # for bit
    recorded = _record_routes(monkeypatch)
    assert series.verify_identities_sweep(130) == []
    routes = dict(recorded)
    for n in (1, 2, 127, 128, 129):
        for s in EXPONENTS:
            swept = series._comparison(complex(s), n, routes[complex(s)], n - 1)
            assert _bits(series.verify_square_identity(s, n)) == _bits(swept), (s, n)


def test_identities_sweep_grows_every_table(monkeypatch):
    # every table the sweep reads is the closed-form oracle's at its n;
    # only the 60-table, whose distinct products the powers are evaluated
    # at, is built again
    tables, built = [], []
    grown_tables = series._grown_tables

    def recording(n_max):
        for table in grown_tables(n_max):
            tables.append(table.copy())
            yield table

    def building(n):
        built.append(n)
        return table_multiplicities(n)

    monkeypatch.setattr(series, "_grown_tables", recording)
    monkeypatch.setattr(series, "table_multiplicities", building)
    assert series.verify_identities_sweep(60) == []
    assert built == [60]
    assert len(tables) == 60
    for n, counts in enumerate(tables, 1):
        assert np.array_equal(counts, table_multiplicities_formula(n)), n


def test_identities_sweep_evaluates_each_power_once(monkeypatch):
    # per float exponent: each border cell's product once for the grid
    # route, each distinct product of the 60-table once for the
    # multiplicity route, and 1..60 once for the zeta route
    evaluated = []
    power_terms = series._power_terms

    def counting(base, s):
        evaluated.append((s, np.size(base)))
        return power_terms(base, s)

    monkeypatch.setattr(series, "_power_terms", counting)
    assert series.verify_identities_sweep(60) == []
    distinct = np.count_nonzero(table_multiplicities(60))
    assert {s for s, _ in evaluated} == {2, 3, 2 + 3j}
    for s in (2, 3, 2 + 3j):
        count = sum(size for t, size in evaluated if t == s)
        assert count <= 60 * 61 // 2 + distinct + 60, s


@pytest.mark.parametrize("s", EXPONENTS)
def test_identity_fails_on_a_wrong_multiplicity(monkeypatch, s):
    # the product 6 counted once too often in the 30-table moves the
    # multiplicity route alone, by 6**-s
    def one_too_many(n):
        counts = table_multiplicities(n)
        counts[6] += 1
        return counts

    monkeypatch.setattr(series, "table_multiplicities", one_too_many)
    cmp = series.verify_square_identity(s, 30)
    assert cmp.ok is False
    assert cmp.grid_sum == pytest.approx(cmp.zeta_partial_squared, rel=1e-12)
    assert cmp.multiplicity_sum - cmp.grid_sum == pytest.approx(6 ** -complex(s))


@pytest.mark.parametrize(
    "s, n", [(0, 30), (-1, 30), (2, 30), (3, 17), (0.5, 25), (2 + 3j, 40), (-2.5, 12)]
)
def test_identity_routes_match_direct_sums(s, n):
    # the grid and multiplicity routes against term-by-term sums taken
    # with Python's own powers and math.fsum: exact at s = 0 and s = -1
    grid, mult = square_identity_sums(s, n)
    cmp = series.verify_square_identity(s, n)
    if s in (0, -1):
        assert (cmp.grid_sum, cmp.multiplicity_sum) == (grid, mult)
    else:
        assert abs(cmp.grid_sum - grid) <= 1e-13 * abs(grid)
        assert abs(cmp.multiplicity_sum - mult) <= 1e-13 * abs(mult)


def test_exact_grid_sum_spans_row_blocks():
    # n on and around the row block's length, and several blocks
    for n in (1, 127, 128, 129, 300):
        ns = np.arange(1, n + 1)
        assert series._grid_route(0, n).tolist() == (ns * ns).tolist()
        assert series._grid_route(-1, n).tolist() == ((ns * (ns + 1) // 2) ** 2).tolist()


def test_identities_sweep_rejects_empty_range():
    for n_max in (0, -5):
        with pytest.raises(ValueError, match="empty range"):
            series.verify_identities_sweep(n_max)


def test_identity_rejects_oversize_table():
    with pytest.raises(ValueError):
        series.verify_square_identity(2, series.IDENTITY_N_MAX + 1)
    with pytest.raises(ValueError):
        series.verify_square_identity(2, 0)


@pytest.mark.parametrize("s", [-300, -300 + 1j])
def test_identity_rejects_sums_that_are_not_finite(s):
    # terms that overflow a float make a domain error, not a failed
    # identity
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="are not finite"):
            series.verify_square_identity(s, 50)


def test_conjugate_symmetry_spot():
    a = series.zeta_partial(2 + 3j, 1000)
    b = series.zeta_partial(2 - 3j, 1000)
    assert abs(b - a.conjugate()) <= 1e-15 * abs(a)


def test_truncation_gap_decreases():
    gaps = [
        series.zeta_square_truncation(2, k_max)["gap"]
        for k_max in (100, 1000, 10**4)
    ]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_truncation_at_even_reference():
    out = series.zeta_square_truncation(2, 10**4)
    assert out["reference"] == (math.pi**2 / 6) ** 2
    assert out["gap"] == pytest.approx(0.0011362769787996996, rel=1e-10)


@pytest.mark.parametrize("k_max", [10, 12345, 2**20, 2**20 + 1, 3 * 2**20 + 7, 10**7])
def test_truncation_blocks_match_whole_array_sum(k_max):
    # block by block gives math.fsum the same block partials as one
    # pass over whole-length arrays, so the sums are bit-identical
    for s in (1.5, 2, 3.7):
        got = series.zeta_square_truncation(s, k_max)["partial"]
        assert got == zeta_square_truncation_partial(s, k_max), (s, k_max)


def test_truncation_validation():
    with pytest.raises(ValueError):
        series.zeta_square_truncation(1.0, 100)
    with pytest.raises(ValueError):
        series.zeta_square_truncation(2, 9)


def test_zeta_reference_closed_forms():
    assert series._zeta_reference(2.0) == math.pi**2 / 6
    assert series._zeta_reference(4.0) == math.pi**4 / 90
    assert series._zeta_reference(6.0) == math.pi**6 / 945


def test_zeta_reference_summed_path():
    # no closed form at s = 3; the long partial sum plus tail must land
    # on the known value
    assert series._zeta_reference(3.0) == pytest.approx(
        1.2020569031595943, rel=1e-12
    )


def test_truncation_rejects_k_max_above_cap():
    with pytest.raises(ValueError):
        series.zeta_square_truncation(2, series.TRUNCATION_K_MAX + 1)


_FAR_FROM_THE_AXIS = [(0.5 + 1e6j, 50), (0.5 + 5623.413251903491j, 2000)]


@pytest.mark.parametrize("s, n", _FAR_FROM_THE_AXIS)
def test_identity_holds_far_from_the_real_axis(s, n):
    # the routes differ by more than 1e-9 of the squared partial sum, by
    # rounding alone: the rounding bound of the routes passes them
    cmp = series.verify_square_identity(s, n)
    assert cmp.max_abs_deviation > 1e-9 * abs(cmp.zeta_partial_squared)
    assert cmp.ok is True
    assert cmp.tolerance == pytest.approx(
        float(series._rounding_bound(s, np.array([n]))[0])
        * abs(series.zeta_partial(s.real, n)) ** 2
    )


@pytest.mark.parametrize("s, n", _FAR_FROM_THE_AXIS)
def test_wrong_multiplicity_fails_far_from_the_real_axis(monkeypatch, s, n):
    def one_too_many(size):
        counts = table_multiplicities(size)
        counts[6] += 1
        return counts

    monkeypatch.setattr(series, "table_multiplicities", one_too_many)
    cmp = series.verify_square_identity(s, n)
    assert cmp.ok is False
    assert cmp.multiplicity_sum - cmp.grid_sum == pytest.approx(6**-s, rel=1e-6)


@pytest.mark.parametrize("n", [10, 50, 200])
def test_identity_holds_on_the_critical_line(n):
    # Re s = 0.5, Im s = 10**(e/4) up to 10**12, where the phase of k**-s
    # keeps fewer and fewer correct digits: every check passes
    for e in range(49):
        cmp = series.verify_square_identity(0.5 + 10 ** (e / 4) * 1j, n)
        assert cmp.ok, (e, cmp.max_abs_deviation, cmp.tolerance)


@pytest.mark.parametrize("s", [1e16, 7.2e13, 1e300])
def test_identity_holds_at_a_large_real_s(s):
    # every term past k = 1 underflows to 0, so all three routes give
    # exactly 1: the terms' sizes weight their ln x, and the bound stays
    # far below the sums
    cmp = series.verify_square_identity(s, 50)
    assert (cmp.grid_sum, cmp.zeta_partial_squared, cmp.multiplicity_sum) == (1, 1, 1)
    assert cmp.max_abs_deviation == 0 and cmp.ok is True
    assert cmp.tolerance == 1e-9


def test_large_real_s_still_fails_a_wrong_multiplicity(monkeypatch):
    # one multiplicity off by one at k = 1, the one term that does not
    # underflow: the multiplicity sum reads 2
    def one_too_many(size):
        counts = table_multiplicities(size)
        counts[1] += 1
        return counts

    monkeypatch.setattr(series, "table_multiplicities", one_too_many)
    cmp = series.verify_square_identity(1e16, 50)
    assert cmp.multiplicity_sum == 2 and cmp.ok is False


def test_rounding_bound_weights_each_term_by_its_own_log():
    # over S(n), the terms' factor is |s| 2L/Z, L = sum k^-Re(s) ln k and
    # Z = sum k^-Re(s): below |s| ln(n^2) at every n > 1, equal at n = 1
    ns = np.array([1, 2, 50, 2000])
    for s in (0.5 + 1e6j, 2, 3, 2 + 3j, -1.5):
        k = np.arange(1, 2001)
        sizes = k ** -complex(s).real
        mean_log = 2 * np.cumsum(sizes * np.log(k)) / np.cumsum(sizes)
        expect = series._U * (
            series._ROUNDING_C * (abs(s) * mean_log[ns - 1] + 1)
            + series._ROW_BLOCK + 2 * np.log2(ns) + 16
        )
        got = series._rounding_bound(complex(s), ns)
        assert got == pytest.approx(expect, rel=1e-12), s
        old = series._U * (
            series._ROUNDING_C * (abs(s) * np.log(ns * ns) + 1)
            + series._ROW_BLOCK + 2 * np.log2(ns) + 16
        )
        assert got[0] == pytest.approx(old[0]) and (got[1:] < old[1:]).all(), s
    # sizes that overflow fall back to ln(n^2)
    with np.errstate(over="ignore"):
        assert series._rounding_bound(-1000 + 0j, np.array([50]))[0] == pytest.approx(
            series._U * (series._ROUNDING_C * (1000 * np.log(2500) + 1) + 128
                         + 2 * np.log2(50) + 16)
        )


@pytest.mark.parametrize("s", [0.5 + 1e16j, 2 + 1e15j, 1 + 1e15j])
def test_identity_rejects_s_that_rounding_swamps(monkeypatch, s):
    # the rounding bound reaches the size of the sums: a domain error,
    # raised before any table or sum is built
    def no_table(n):
        raise AssertionError("a table was built")

    monkeypatch.setattr(series, "table_multiplicities", no_table)
    with pytest.raises(ValueError, match=r"\|s\| ln\(n\^2\) is too large"):
        series.verify_square_identity(s, 50)
