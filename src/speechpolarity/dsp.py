"""Analytic-signal machinery: Hilbert transform, envelope, and cosine phase.

The Hilbert transform is the exact circular one over the whole signal (the
discrete analytic signal of MATLAB's ``hilbert``): one real FFT pair at the
signal's own length, or, where a large prime factor makes that pair slow, a
linear convolution with its closed-form kernel at a 5-smooth padded length.
The envelope is invariant under sample negation while the cosine phase
changes sign; both facts are load-bearing for the polarity detectors built
on top of this module.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .types import AnalyticSignal, EnvelopeSeries, InvalidInputError, PhaseSeries, Signal


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


def hilbert_transform(s: Signal) -> Signal:
    """Return the circular Hilbert transform of ``s``; the transform of cos is sin.

    Direct path: rfft at the signal's own length n, bins 0 < k < n/2 times
    -j (irfft supplies +j on the negative bins), the DC bin (and the Nyquist
    bin for even n) zeroed, irfft.  Padded path: the inverse DFT of that
    multiplier, h[0] = 0 and, for odd n, h[m] = cot(pi m/2n)/n at odd m and
    -tan(pi m/2n)/n at even m; for even n, 2 cot(pi m/n)/n at odd m and 0 at
    even m.  It is evaluated for 0 < m < n/2 and filled by the exact
    antisymmetry h[n-m] = -h[m], since tan and cot near m = n would amplify
    their argument's rounding about n-fold.  With h at lags 1-n..n-1, the
    linear convolution at L = next_fast_len(2n-1) equals the circular one on
    the n outputs kept.  This path is taken where pocketfft's own cost model
    rates an FFT at n above 8 times one at L, never for 11-smooth n.
    """
    x = s.samples
    n = x.size
    size = 0 if next_fast_len(n) == n else next_fast_len(2 * n - 1, real=True)
    if size and _fft_cost(n) > 8.0 * _fft_cost(size):
        spec = rfft(_kernel_buffer(n, size))
        spec *= rfft(x, size)
        return Signal(irfft(spec, size)[:n].copy(), s.sample_rate_hz)
    spec = rfft(x)
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = 0.0
    spec *= -1j
    return Signal(irfft(spec, n), s.sample_rate_hz)


def analytic_signal(s: Signal) -> AnalyticSignal:
    """Pair ``s`` (kept verbatim as the real part) with its Hilbert transform."""
    return AnalyticSignal(s.samples, hilbert_transform(s).samples, s.sample_rate_hz)


def hilbert_envelope(a: AnalyticSignal) -> EnvelopeSeries:
    """Magnitude of the analytic signal, sqrt(real^2 + imag^2)."""
    return EnvelopeSeries(np.hypot(a.real, a.imag), a.sample_rate_hz)


def cosine_phase(a: AnalyticSignal, eps: float | None = None) -> PhaseSeries:
    """Cosine of the instantaneous phase: real part over the envelope.

    Samples where the envelope falls below ``eps`` yield 0.  ``eps`` defaults
    to 1e-12 of the envelope peak (1e-12 for silence) so that the result
    does not depend on the overall signal scale.
    """
    env = np.hypot(a.real, a.imag)
    if eps is None:
        peak = float(env.max()) if env.size else 0.0
        eps = 1e-12 * (peak if peak > 0.0 else 1.0)
    if not 0.0 < eps < np.inf:
        raise InvalidInputError(f"eps must be positive and finite, got {eps}")
    values = a.real / np.maximum(env, eps)
    np.clip(values, -1.0, 1.0, out=values)
    return PhaseSeries(values, a.sample_rate_hz)
