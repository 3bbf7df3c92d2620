"""Analytic-signal machinery: Hilbert transform, envelope, and cosine phase.

The Hilbert transform is computed over the whole signal with one real FFT
pair at the signal's own length: circular, with no framing and no zero
padding.  The envelope is invariant under sample negation while the cosine
phase changes sign; both facts are load-bearing for the polarity detectors
built on top of this module.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, rfft

from .types import AnalyticSignal, EnvelopeSeries, InvalidInputError, PhaseSeries, Signal


def hilbert_transform(s: Signal) -> Signal:
    """Return the circular Hilbert transform of ``s`` via the one-sided-spectrum method.

    One real FFT pair at the signal's own length N, no padding: bin k of the
    one-sided spectrum is multiplied by -j for 0 < k < N/2 (the inverse real
    FFT supplies +j on the negative bins); the DC bin (and the Nyquist bin
    for even N) is zeroed.  With this convention the transform of cos is sin.
    """
    x = s.samples
    n = x.size
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


def default_phase_eps(envelope: np.ndarray) -> float:
    """Guard against division by a zero envelope: 1e-12 of the peak, or 1 for silence."""
    peak = float(envelope.max()) if envelope.size else 0.0
    return 1e-12 * (peak if peak > 0.0 else 1.0)


def cosine_phase(a: AnalyticSignal, eps: float | None = None) -> PhaseSeries:
    """Cosine of the instantaneous phase: real part over the envelope.

    Samples where the envelope falls below ``eps`` yield 0.  ``eps`` defaults
    to a value proportional to the envelope peak so that the result does not
    depend on the overall signal scale.
    """
    env = np.hypot(a.real, a.imag)
    if eps is None:
        eps = default_phase_eps(env)
    if eps <= 0.0:
        raise InvalidInputError(f"eps must be positive, got {eps}")
    values = a.real / np.maximum(env, eps)
    np.clip(values, -1.0, 1.0, out=values)
    return PhaseSeries(values, a.sample_rate_hz)
