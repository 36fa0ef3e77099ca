"""Randomized invariants, cross-checking independent routes."""

import math
from unittest import mock

from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import count_distinct_dense

from mtable import products
from mtable.divisors import divisor_count, divisor_sum, incomplete_divisor_count
from mtable.multiplicity import multiplicity_direct, multiplicity_formula
from mtable.products import count_distinct_segmented
from mtable.series import zeta_partial


@given(st.integers(1, 3000), st.integers(1, 3000))
def test_divisor_functions_multiplicative(a, b):
    assume(math.gcd(a, b) == 1)
    assert divisor_count(a * b) == divisor_count(a) * divisor_count(b)
    assert divisor_sum(a * b) == divisor_sum(a) * divisor_sum(b)


@given(st.integers(2, 300), st.data())
def test_formula_matches_direct(n, data):
    k = data.draw(st.integers(1, n * n))
    assert multiplicity_formula(n, k) == multiplicity_direct(n, k)


@given(st.integers(1, 500), st.floats(0, 600, allow_nan=False))
def test_incomplete_count_monotone(k, x):
    below = incomplete_divisor_count(k, x)
    above = incomplete_divisor_count(k, x + 1.0)
    assert 0 <= below <= above <= divisor_count(k)
    assert incomplete_divisor_count(k, k) == divisor_count(k)


@given(st.integers(1, 400), st.integers(16, 22).map(lambda e: 1 << e))
def test_segmented_any_window_length(n, bits):
    # patched in the body: hypothesis rejects function-scoped fixtures
    with mock.patch.object(products, "SEGMENT_WINDOW", bits):
        assert count_distinct_segmented(n) == count_distinct_dense(n)


@given(st.floats(1.5, 6), st.floats(-8, 8), st.integers(1, 800))
def test_zeta_conjugate_symmetry(re, im, n):
    s = complex(re, im)
    a = zeta_partial(s, n)
    b = zeta_partial(s.conjugate(), n)
    assert abs(b - a.conjugate()) <= 1e-14 * max(1.0, abs(a))


@given(st.integers(1, 256))
def test_distinct_count_brackets(n):
    # between the first row plus first column, and the unordered pairs
    m = count_distinct_dense(n)
    assert 2 * n - 1 <= m <= n * (n + 1) // 2


@given(st.integers(1, 200), st.integers(1, 200))
def test_multiplicity_symmetric_in_factors(a, b):
    # a*b and b*a land on the same product, so multiplicity counts
    # ordered pairs: square products have odd counts in a full table
    k = a * b
    n = max(a, b)
    count = multiplicity_direct(n, k)
    assert count >= 1
    root = math.isqrt(k)
    if root * root == k and n >= k:
        assert multiplicity_direct(n, k) % 2 == 1
