"""Array kernels: Hilbert transform, envelope, cosine phase, Butterworth filters, detrending.

The Hilbert transform is the exact circular one over the whole signal (the
discrete analytic signal of MATLAB's ``hilbert``): one real FFT pair at the
signal's own length, exact at every length.  The envelope is invariant
under sample negation while the cosine phase changes sign; both facts are
load-bearing for the polarity detectors built on top of this module.  The
envelope is summed squares and a square root, not ``np.hypot``.
Each Butterworth design and its steady state are computed once, in one
cache; ``zero_phase_butterworth`` is ``filtfilt`` with both.  The centered
moving average is subtracted in place, from one cumulative-sum buffer.
Every kernel takes and returns plain ndarrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import irfft, rfft
from scipy.signal import butter, lfilter, lfilter_zi

from .types import InvalidInputError

_TINY_SQUARE = 2.0 ** -1000  # a largest square below this takes the scaled path


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
    """Magnitude of the analytic signal, sqrt(real^2 + imag^2); never negative.

    The squares are summed into one new buffer and its square root taken in
    place: one pass less than ``np.hypot``, whose correctly rounded libm
    call is about three times slower.  The result is within 1 ulp of
    ``np.hypot`` wherever the squares are normal numbers, and exactly even
    under negation of the pair.  When the largest square overflows or falls
    below 2^-1000, the pair is scaled exactly, by a power of two, to a largest
    magnitude in [0.5, 1) first and the result scaled back, without a
    warning, so the result is finite wherever ``np.hypot``'s is.  A sample
    more than about 2^500 below the largest one has a subnormal square and
    loses precision (``cosine_phase`` floors such samples anyway).
    """
    real, imag = pair
    with np.errstate(over="ignore", under="ignore"):
        out = real * real
        out += imag * imag
        if _TINY_SQUARE <= out.max(initial=0.0) < np.inf:
            return np.sqrt(out, out=out)
        peak = max(np.abs(real).max(initial=0.0), np.abs(imag).max(initial=0.0))
        exponent = int(np.frexp(peak)[1])
        scaled = np.ldexp(real, -exponent)
        np.multiply(scaled, scaled, out=out)
        np.ldexp(imag, -exponent, out=scaled)
        scaled *= scaled
        out += scaled
        np.sqrt(out, out=out)
        return np.ldexp(out, exponent, out=out)


def cosine_phase(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Cosine of the instantaneous phase: real part over the envelope, in [-1, 1].

    Samples where the envelope falls below 1e-12 of its peak (1e-12 for
    silence) yield 0, so that the result does not depend on the overall
    signal scale and is exactly odd under negation of the signal.  One call
    of ``hilbert_envelope(pair)`` makes the only buffer: the floor, the
    division of ``pair[0]`` by it and the clip are done in place there.
    """
    values = hilbert_envelope(pair)
    peak = float(values.max(initial=0.0))
    np.maximum(values, 1e-12 * (peak if peak > 0.0 else 1.0), out=values)
    np.divide(pair[0], values, out=values)
    np.clip(values, -1.0, 1.0, out=values)
    return values


@lru_cache
def butterworth(order: int, sample_rate_hz: int, high_hz: float,
                low_hz: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Butterworth (b, a) and steady state ``lfilter_zi(b, a)``, made once per
    argument tuple: a low-pass at ``high_hz``, or with ``low_hz`` a band-pass; the upper
    edge is capped at 0.95 Nyquist.
    """
    nyq = sample_rate_hz / 2.0
    high = min(high_hz, 0.95 * nyq) / nyq
    if low_hz is None:
        b, a = butter(order, high, btype="low")
    else:
        b, a = butter(order, [low_hz / nyq, high], btype="band")
    zi = lfilter_zi(b, a)
    b.flags.writeable = a.flags.writeable = zi.flags.writeable = False
    return b, a, zi


def zero_phase_butterworth(x: np.ndarray, order: int, sample_rate_hz: int, high_hz: float,
                           low_hz: float | None = None) -> np.ndarray:
    """``filtfilt(b, a, x)`` with the (b, a) of ``butterworth`` for the same arguments, bitwise.

    The same odd extension by three filter lengths at each end, and the same
    forward and backward ``lfilter`` passes from the cached steady state;
    the extended copy is freed after the forward pass.  ``x`` must be longer
    than the extension.
    """
    b, a, zi = butterworth(order, sample_rate_hz, high_hz, low_hz)
    edge = 3 * max(a.size, b.size)
    if x.size <= edge:
        raise InvalidInputError(f"zero-phase filtering needs more than {edge} samples, "
                                f"got {x.size}")
    ext = np.concatenate((2 * x[0] - x[edge:0:-1], x, 2 * x[-1] - x[-2:-edge - 2:-1]))
    y = lfilter(b, a, ext, zi=zi * ext[0])[0]
    del ext
    return lfilter(b, a, y[::-1], zi=zi * y[-1])[0][::-1][edge:-edge]


def odd_window(width_samples: int) -> int:
    """The moving-average window for ``width_samples``: made odd, at least 3 samples."""
    w = int(width_samples)
    return max(w + 1 if w % 2 == 0 else w, 3)


def subtract_moving_average(y: np.ndarray, width_samples: int) -> np.ndarray:
    """Subtract from ``y``, in place, its mean over a centered window; returns ``y``.

    The window is ``odd_window(width_samples)``, w samples, truncated at the
    signal boundaries: each of the h = w // 2 samples at either end (every
    sample, if the window is not shorter than ``y``) loses the mean of the
    part of its window in range.  All means come from one cumulative-sum
    buffer of ``y``'s size plus one; the interior means, where the whole
    window is in range, are one slice difference of it, divided in place.
    """
    w = odd_window(width_samples)
    n = y.size
    h = w // 2
    csum = np.empty(n + 1, dtype=y.dtype)
    csum[0] = y[0] * 0 if n else 0  # the sign of zero a prepended y[:1] * 0 would have
    np.cumsum(y, out=csum[1:])
    idx = np.arange(n) if n <= w else np.concatenate((np.arange(h), np.arange(n - h, n)))
    hi = np.minimum(idx + h + 1, n)
    lo = np.maximum(idx - h, 0)
    edges = (csum[hi] - csum[lo]) / (hi - lo)
    if n <= w:
        y -= edges
        return y
    # csum[w + i] - csum[i] written over csum[i]: the reads run ahead of the writes
    interior = csum[:n - w + 1]
    np.subtract(csum[w:], interior, out=interior)
    interior /= w
    y[:h] -= edges[:h]
    y[h:n - h] -= interior
    y[n - h:] -= edges[h:]
    return y
