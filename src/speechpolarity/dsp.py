"""Array kernels: Hilbert transform, envelope, cosine phase, Butterworth design, moving average.

The Hilbert transform is the exact circular one over the whole signal (the
discrete analytic signal of MATLAB's ``hilbert``): one real FFT pair at the
signal's own length, or, where a large prime factor makes that pair slow, a
linear convolution with its closed-form kernel at a 5-smooth padded length.
The envelope is invariant under sample negation while the cosine phase
changes sign; both facts are load-bearing for the polarity detectors built
on top of this module.  Every kernel takes and returns plain ndarrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.signal import butter

from .types import InvalidInputError


def _fft_cost(n: int) -> float:
    """pocketfft's ``cost_guess``: n times its prime factors' sum, those above 5 weighted 1.1."""
    factors, rest, p = [], n, 2
    while p * p <= rest:
        while rest % p == 0:
            factors.append(p)
            rest //= p
        p += 1 if p == 2 else 2
    factors += [rest] if rest > 1 else []
    return n * sum(f if f <= 5 else 1.1 * f for f in factors)


def _kernel_buffer(n: int, size: int) -> np.ndarray:
    """The circular kernel at lags 0..n-1 from a zeroed buffer's start and 1-n..-1 from its end."""
    m = np.arange(1, (n + 1) // 2)  # 0 < m < n/2; h[0] (and h[n/2] for even n) is 0
    if n % 2:
        t = np.tan(np.pi / (2 * n) * m)
        half = np.where(m % 2 == 1, 1.0 / t, -t) / n
    else:
        half = np.where(m % 2 == 1, 2.0 / np.tan(np.pi / n * m), 0.0) / n
    g = np.zeros(size)
    g[1:m.size + 1] = half
    g[n - m.size:n] = -half[::-1]  # h[n-m] = -h[m], exactly
    g[size - n + 1:] = g[1:n]
    return g


def hilbert_transform(x: np.ndarray) -> np.ndarray:
    """Return the circular Hilbert transform of ``x``; the transform of cos is sin.

    ``x`` must be non-empty and 1-D; finite samples are the caller's to
    ensure.  Direct path: rfft at the signal's own length n, bins 0 < k < n/2
    times -j (irfft supplies +j on the negative bins), the DC bin (and the
    Nyquist bin for even n) zeroed, irfft.  Padded path: the inverse DFT of
    that multiplier, h[0] = 0 and, for odd n, h[m] = cot(pi m/2n)/n at odd m
    and -tan(pi m/2n)/n at even m; for even n, 2 cot(pi m/n)/n at odd m and 0
    at even m.  It is evaluated for 0 < m < n/2 and filled by the exact
    antisymmetry h[n-m] = -h[m], since tan and cot near m = n would amplify
    their argument's rounding about n-fold.  With h at lags 1-n..n-1, the
    linear convolution at L = next_fast_len(2n-1) equals the circular one on
    the n outputs kept.  This path is taken where pocketfft's own cost model
    rates an FFT at n above 8 times one at L, never for 11-smooth n.
    """
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError(f"Hilbert transform input must be non-empty 1-D, got {x.shape}")
    n = x.size
    size = 0 if next_fast_len(n) == n else next_fast_len(2 * n - 1, real=True)
    if size and _fft_cost(n) > 8.0 * _fft_cost(size):
        spec = rfft(_kernel_buffer(n, size))
        spec *= rfft(x, size)
        return irfft(spec, size)[:n].copy()
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
