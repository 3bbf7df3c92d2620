"""The centered moving average against its all-fancy-indexed formula."""

import numpy as np
import pytest

from speechpolarity.dsp import centered_moving_average


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

