"""The centered moving average against its all-fancy-indexed formula, and its in-place
subtraction against subtracting it."""

import numpy as np
import pytest

from speechpolarity.dsp import centered_moving_average, odd_window, subtract_moving_average


def reference_moving_average(x, width_samples):
    """Every output sample from clipped cumulative-sum indices."""
    w = int(width_samples)
    if w % 2 == 0:
        w += 1
    w = max(w, 3)
    n = x.size
    csum = np.cumsum(np.concatenate((x[:1] * 0, x)))
    idx = np.arange(n)
    hi = np.minimum(idx + w // 2 + 1, n)
    lo = np.maximum(idx - w // 2, 0)
    return (csum[hi] - csum[lo]) / (hi - lo)


def same_bits(got, want):
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if got.dtype == np.longdouble:
        # longdouble storage carries padding bytes that numpy leaves
        # uninitialised; for non-NaN values, equal values with equal sign
        # bits are equal significant bits
        return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    return got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_matches_fancy_indexed_formula_bitwise(dtype):
    rng = np.random.default_rng(17)
    for n in range(1, 41):
        x = rng.standard_normal(n).astype(dtype)
        for w in range(0, n + 2):
            assert same_bits(centered_moving_average(x, w), reference_moving_average(x, w)), (n, w)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("width", [0, 2, 3, 8, 9, 401])
def test_subtraction_in_place_equals_subtracting_the_average(dtype, width):
    # n < w, n = w, n = w + 1 for the odd window w, every short n, and a long n
    w = odd_window(width)
    rng = np.random.default_rng(width)
    for n in sorted({w - 1, w, w + 1, 20_011, *range(1, 41)}):
        y = rng.standard_normal(n).cumsum().astype(dtype)
        want = y - centered_moving_average(y, width)
        got = subtract_moving_average(y, width)
        assert got is y and same_bits(got, want), n
