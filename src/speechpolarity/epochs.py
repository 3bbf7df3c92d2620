"""Excitation-instant estimation by zero-frequency filtering (ZFF).

Speech passed through a cascade of resonators with poles at 0 Hz reduces to
a smooth oscillation at the pitch rate once the polynomial trend is removed;
its zero crossings cluster around instants of significant excitation.  Both
rising and falling crossings are kept so that the anchor set is identical
for a signal and its negation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import odd_window, subtract_moving_average
from .types import InvalidInputError, Signal

# Crossings this close to the signal boundary are discarded (FFT-edge zone
# mirrored from the analytic-signal stage).
BOUNDARY_GUARD_SAMPLES = 16

PITCH_FRAME_MS = 40.0
PITCH_HOP_MS = 20.0
PITCH_LAG_MIN_MS = 2.5
PITCH_LAG_MAX_MS = 20.0
PITCH_VOICING_THRESHOLD = 0.5
PITCH_MIN_VOICED_FRAMES = 5
PITCH_FALLBACK_HZ = 120.0  # returned when too few frames are voiced

ZFF_TREND_PASSES = 3

_PITCH_BLOCK_FRAMES = 128  # pitch frames transformed per FFT call


def estimate_mean_pitch(s: Signal) -> float:
    """Mean fundamental frequency from normalized autocorrelation of 40 ms frames.

    The peak lag is searched between 2.5 and 20 ms (50-400 Hz); a frame
    counts as voiced when its normalized autocorrelation peak reaches 0.5.
    Returns ``PITCH_FALLBACK_HZ`` when fewer than 5 frames are voiced or
    the signal is shorter than 100 ms.
    The frame autocorrelations are computed ``_PITCH_BLOCK_FRAMES`` frames
    at a time, each block's frame copies and spectra freed before the next,
    and only lags 0 to 20 ms + 1 sample are kept: one array about the
    input's size.  The peak memory, with the voicing step's one copy of
    that array, is about twice the input's size, instead of 14 times for
    a copy of every frame and its spectrum.  Each frame's power spectrum
    is ``np.conj(spec) * spec`` formed in place, so a frame's bits do not
    depend on how many frames share its block or the signal.
    """
    fs = s.sample_rate_hz
    x = s.samples
    frame = int(round(PITCH_FRAME_MS * fs / 1000.0))
    hop = int(round(PITCH_HOP_MS * fs / 1000.0))
    lag_lo = int(round(PITCH_LAG_MIN_MS * fs / 1000.0))
    lag_hi = int(round(PITCH_LAG_MAX_MS * fs / 1000.0))
    if x.size < int(0.1 * fs) or lag_hi + 1 >= frame or lag_lo < 1:  # refinement reads lag_hi + 1
        return PITCH_FALLBACK_HZ

    # A power-of-two scale to a peak in [0.5, 1) is exact, and keeps the
    # autocorrelation of very loud or very quiet input from overflowing or underflowing.
    exponent = np.frexp(max(x.max(), -x.min()))[1]
    frames = sliding_window_view(x, frame)[::hop]
    acf = np.empty((len(frames), lag_hi + 2))
    for b in range(0, len(frames), _PITCH_BLOCK_FRAMES):
        block = np.ldexp(frames[b:b + _PITCH_BLOCK_FRAMES], -exponent)
        block -= block.mean(axis=1, keepdims=True)
        spec = np.fft.rfft(block, 2 * frame, axis=1)
        del block
        # a named temporary is never elided, so the product is formed one way at every size
        power = np.conj(spec)
        power *= spec
        del spec
        acf[b:b + _PITCH_BLOCK_FRAMES] = np.fft.irfft(power, axis=1)[:, :lag_hi + 2]
        del power

    rows = np.flatnonzero(acf[:, 0] > 0.0)
    r0 = acf[rows, 0]
    seg = acf[rows, lag_lo:lag_hi + 1]  # fancy indexing copies, so divide in place
    seg /= r0[:, None]
    k = np.argmax(seg, axis=1)
    voiced = seg.max(axis=1) >= PITCH_VOICING_THRESHOLD
    rows, r0, j = rows[voiced], r0[voiced], lag_lo + k[voiced]
    # parabolic refinement around the peak
    y0, y1, y2 = acf[rows, j - 1] / r0, acf[rows, j] / r0, acf[rows, j + 1] / r0
    denom = y0 - 2 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 0.5 * (y0 - y2) / denom
    lag = np.where((denom < 0) & (np.abs(delta) < 1.0), j + delta, j)
    pitches = fs / lag
    if pitches.size < PITCH_MIN_VOICED_FRAMES:
        return PITCH_FALLBACK_HZ
    return float(np.mean(pitches))


def zff_filter(s: Signal, mean_pitch_hz: float) -> Signal:
    """Zero-frequency filter: ``ZFF_TREND_PASSES`` integrate-and-detrend pairs, in float64.

    The input less its first sample is integrated three times, as the
    differenced input through two resonators y(n) = x(n) + 2 y(n-1) - y(n-2)
    would be, but each cumulative sum is followed by subtracting the local
    mean, which removes constants and lines: the values stay bounded at any
    length with no extended precision.  An error a pass leaves at the start
    is a constant after the next integration, which the next subtraction
    removes; the outermost two trend windows, where it stays, are zeroed.
    The trend window is 1.5 periods of ``mean_pitch_hz`` (``estimate_mean_pitch``'s
    result; it must be positive and finite), clamped to [3, 25] ms.
    Each pass integrates and detrends in place (``subtract_moving_average``),
    so the peak memory is the output and one cumulative-sum buffer, about
    twice the input's size.
    """
    fs = s.sample_rate_hz
    if not 0.0 < mean_pitch_hz < np.inf:
        raise InvalidInputError(f"mean pitch must be positive and finite, got {mean_pitch_hz}")
    window_ms = float(np.clip(1.5 * 1000.0 / mean_pitch_hz, 3.0, 25.0))
    width = odd_window(round(window_ms * fs / 1000.0))
    if s.samples.size < 3 * width:
        raise InvalidInputError(
            f"signal too short for ZFF: {s.samples.size} samples < 3 trend windows ({3 * width})")

    y = s.samples - s.samples[0]
    for _ in range(ZFF_TREND_PASSES):  # one pole at DC, then its trend removed, in place
        np.cumsum(y, out=y)
        subtract_moving_average(y, width)

    guard = min(2 * width, y.size)
    y[:guard] = 0.0
    y[y.size - guard:] = 0.0
    return Signal(y, fs)


def extract_epochs(y: Signal) -> np.ndarray:
    """All zero crossings of a ZFF output, refined to the sample nearest zero.

    Crossings within 1 ms of an already accepted crossing, or within
    ``BOUNDARY_GUARD_SAMPLES`` of either boundary, are discarded.  Rising and
    falling crossings are both kept, which makes the result identical for
    ``y`` and ``-y``.  The result is the strictly ascending int64 array of
    their sample indices, at the rate of ``y``.
    """
    v = y.samples
    fs = y.sample_rate_hz
    prod = v[:-1] * v[1:]
    locs = np.nonzero(prod < 0.0)[0]
    refined = np.where(np.abs(v[locs]) <= np.abs(v[locs + 1]), locs, locs + 1)

    min_gap = int(round(fs / 1000.0))
    inside = refined[(refined >= BOUNDARY_GUARD_SAMPLES)
                     & (refined < v.size - BOUNDARY_GUARD_SAMPLES)]
    # A crossing at least min_gap after its predecessor is always accepted:
    # the last accepted crossing is never later than that predecessor.  So
    # only the crossings closer to their predecessor need the greedy scan,
    # in order, each against the latest accepted crossing before it.
    close = np.flatnonzero(np.diff(inside) < min_gap) + 1
    accepted = np.ones(inside.size, dtype=bool)
    for i, here, before in zip(close.tolist(), inside[close].tolist(),
                               inside[close - 1].tolist()):
        if accepted[i - 1]:
            last = before
        accepted[i] = here - last >= min_gap
    return inside[accepted].astype(np.int64)
