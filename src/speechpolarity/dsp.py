"""Array kernels: Hilbert transform, envelope, cosine phase, Butterworth design, moving average.

The Hilbert transform is the exact circular one over the whole signal (the
discrete analytic signal of MATLAB's ``hilbert``): one real FFT pair at the
signal's own length, exact at every length.  The envelope is invariant
under sample negation while the cosine phase changes sign; both facts are
load-bearing for the polarity detectors built on top of this module.
Every kernel takes and returns plain ndarrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import irfft, rfft
from scipy.signal import butter

from .types import InvalidInputError


def hilbert_transform(x: np.ndarray) -> np.ndarray:
    """Return the circular Hilbert transform of ``x``; the transform of cos is sin.

    ``x`` must be non-empty and 1-D; finite samples are the caller's to
    ensure.  One real FFT pair at the signal's own length n: rfft, the DC
    bin (and the Nyquist bin for even n) zeroed, bins 0 < k < n/2 times -j
    (irfft supplies +j on the negative bins), irfft.  The result is exact
    at every length; lengths with a large prime factor are only slower.
    """
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError(f"Hilbert transform input must be non-empty 1-D, got {x.shape}")
    n = x.size
    spec = rfft(x)
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = 0.0
    spec *= -1j
    return irfft(spec, n)


def analytic_signal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (real, imag): ``x`` verbatim and its Hilbert transform."""
    return x, hilbert_transform(x)


def hilbert_envelope(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Magnitude of the analytic signal, sqrt(real^2 + imag^2); never negative."""
    return np.hypot(*pair)


def cosine_phase(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Cosine of the instantaneous phase: real part over the envelope, in [-1, 1].

    Samples where the envelope falls below 1e-12 of its peak (1e-12 for
    silence) yield 0, so that the result does not depend on the overall
    signal scale and is exactly odd under negation of the signal.
    """
    real, imag = pair
    env = np.hypot(real, imag)
    peak = float(env.max()) if env.size else 0.0
    values = real / np.maximum(env, 1e-12 * (peak if peak > 0.0 else 1.0))
    np.clip(values, -1.0, 1.0, out=values)
    return values


@lru_cache
def butterworth(order: int, sample_rate_hz: int, high_hz: float,
                low_hz: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Butterworth (b, a), designed once per argument tuple: a low-pass at
    ``high_hz``, or with ``low_hz`` a band-pass; the upper edge is capped at 0.95 Nyquist.
    """
    nyq = sample_rate_hz / 2.0
    high = min(high_hz, 0.95 * nyq) / nyq
    if low_hz is None:
        b, a = butter(order, high, btype="low")
    else:
        b, a = butter(order, [low_hz / nyq, high], btype="band")
    b.flags.writeable = a.flags.writeable = False
    return b, a


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
