"""The in-place moving-average subtraction against subtracting the all-fancy-indexed formula."""

import numpy as np
import pytest

from speechpolarity.dsp import odd_window, subtract_moving_average


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


def subtraction_inputs(width):
    """(y, width) pairs: for "every", every n in 1..40 against every width in 0..n + 1."""
    if width == "every":
        rng = np.random.default_rng(17)
        for n in range(1, 41):
            y = rng.standard_normal(n)
            yield from ((y, w) for w in range(n + 2))
        return
    # n < w, n = w, n = w + 1 for the odd window w, every short n, and a long n
    w = odd_window(width)
    rng = np.random.default_rng(width)
    for n in sorted({w - 1, w, w + 1, 20_011, *range(1, 41)}):
        yield rng.standard_normal(n).cumsum(), width


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("width", [0, 2, 3, 8, 9, 401, "every"])
def test_subtraction_in_place_equals_subtracting_the_average(dtype, width):
    for x, w in subtraction_inputs(width):
        y = x.astype(dtype)  # a copy, which the subtraction overwrites
        want = y - reference_moving_average(y, w)
        got = subtract_moving_average(y, w)
        assert got is y and same_bits(got, want), (x.size, w)
