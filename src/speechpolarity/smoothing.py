"""Centered moving-average helpers shared by the filtering stages."""

from __future__ import annotations

import numpy as np


def centered_moving_average(x: np.ndarray, width_samples: int) -> np.ndarray:
    """Mean over a centered window, truncated at the signal boundaries.

    The window is forced to an odd number of samples (minimum 3).  Edge
    samples average over whatever part of the window is in range, so the
    output has the same length as the input.  The interior, where the whole
    window is in range, is one slice difference of the cumulative sum,
    divided in place.
    """
    w = int(width_samples)
    if w % 2 == 0:
        w += 1
    w = max(w, 3)
    n = x.size
    h = w // 2
    csum = np.cumsum(np.concatenate((x[:1] * 0, x)))
    idx = np.arange(n) if n <= w else np.concatenate((np.arange(h), np.arange(n - h, n)))
    hi = np.minimum(idx + h + 1, n)
    lo = np.maximum(idx - h, 0)
    edges = (csum[hi] - csum[lo]) / (hi - lo)
    if n <= w:
        return edges
    interior = csum[w:] - csum[:n - w + 1]
    del csum  # keep at most two input-sized temporaries alive at once
    interior /= w
    return np.concatenate((edges[:h], interior, edges[h:]))
