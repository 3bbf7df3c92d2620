"""Excitation-instant estimation by zero-frequency filtering (ZFF).

Speech passed through a cascade of resonators with poles at 0 Hz reduces to
a smooth oscillation at the pitch rate once the polynomial trend is removed;
its zero crossings cluster around instants of significant excitation.  Both
rising and falling crossings are kept so that the anchor set is identical
for a signal and its negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .smoothing import centered_moving_average
from .types import EpochList, InvalidInputError, Signal

# Crossings this close to the signal boundary are discarded (FFT-edge zone
# mirrored from the analytic-signal stage).
BOUNDARY_GUARD_SAMPLES = 16

PITCH_FRAME_MS = 40.0
PITCH_HOP_MS = 20.0
PITCH_LAG_MIN_MS = 2.5
PITCH_LAG_MAX_MS = 20.0
PITCH_VOICING_THRESHOLD = 0.5
PITCH_MIN_VOICED_FRAMES = 5


@dataclass(frozen=True)
class ZffConfig:
    """Parameters of the ZFF stage.

    ``trend_window_ms = None`` sizes the trend-removal window automatically
    to 1.5 mean pitch periods, clamped to [3, 25] ms.
    """

    trend_window_ms: float | None = None
    trend_passes: int = 3
    mean_pitch_fallback_hz: float = 120.0

    def __post_init__(self):
        if self.trend_window_ms is not None and not (1.0 <= self.trend_window_ms <= 50.0):
            raise InvalidInputError(
                f"trend_window_ms must lie in [1, 50] ms, got {self.trend_window_ms}")
        if not (isinstance(self.trend_passes, Integral) and 1 <= self.trend_passes <= 5):
            raise InvalidInputError(f"trend_passes must be an integer in [1, 5], got {self.trend_passes}")
        if self.mean_pitch_fallback_hz <= 0:
            raise InvalidInputError("mean_pitch_fallback_hz must be positive")


def estimate_mean_pitch(s: Signal, cfg: ZffConfig | None = None) -> float:
    """Mean fundamental frequency from normalized autocorrelation of 40 ms frames.

    The peak lag is searched between 2.5 and 20 ms (50-400 Hz); a frame
    counts as voiced when its normalized autocorrelation peak reaches 0.5.
    Returns the configured fallback when fewer than 5 frames are voiced or
    the signal is shorter than 100 ms.
    """
    cfg = cfg or ZffConfig()
    fs = s.sample_rate_hz
    x = s.samples
    if x.size < int(0.1 * fs):
        return cfg.mean_pitch_fallback_hz
    frame = int(round(PITCH_FRAME_MS * fs / 1000.0))
    hop = int(round(PITCH_HOP_MS * fs / 1000.0))
    lag_lo = int(round(PITCH_LAG_MIN_MS * fs / 1000.0))
    lag_hi = int(round(PITCH_LAG_MAX_MS * fs / 1000.0))
    if x.size < frame or lag_hi >= frame or lag_lo < 1:
        return cfg.mean_pitch_fallback_hz

    starts = np.arange(0, x.size - frame + 1, hop)
    frames = np.stack([x[k:k + frame] for k in starts])
    frames = frames - frames.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(frames, 2 * frame, axis=1)
    acf = np.fft.irfft(spec * np.conj(spec), axis=1)[:, :frame]

    pitches = []
    for row in acf:
        r0 = row[0]
        if r0 <= 0.0:
            continue
        seg = row[lag_lo:lag_hi + 1] / r0
        k = int(np.argmax(seg))
        if seg[k] < PITCH_VOICING_THRESHOLD:
            continue
        lag = float(lag_lo + k)
        # parabolic refinement around the peak
        j = lag_lo + k
        if 1 <= j < frame - 1:
            y0, y1, y2 = row[j - 1] / r0, row[j] / r0, row[j + 1] / r0
            denom = y0 - 2 * y1 + y2
            if denom < 0:
                delta = 0.5 * (y0 - y2) / denom
                if abs(delta) < 1.0:
                    lag = j + delta
        pitches.append(fs / lag)
    if len(pitches) < PITCH_MIN_VOICED_FRAMES:
        return cfg.mean_pitch_fallback_hz
    return float(np.mean(pitches))


def zff_filter(s: Signal, cfg: ZffConfig | None = None,
               mean_pitch_hz: float | None = None) -> Signal:
    """Zero-frequency filter: difference, double resonator pass, trend removal.

    The input is differenced, passed twice through the zero-frequency
    resonator y(n) = x(n) + 2 y(n-1) - y(n-2) (realized as cumulative sums
    in extended precision, since the raw output grows polynomially), and the
    trend is removed by subtracting the local mean ``trend_passes`` times.
    The outermost two trend windows are zeroed: the truncated-window mean
    cannot track the polynomial growth right at the boundaries, and anchors
    that close to the edges are of no use downstream.  The automatic trend
    window uses ``mean_pitch_hz`` when given, else estimates it from ``s``.
    """
    cfg = cfg or ZffConfig()
    fs = s.sample_rate_hz
    window_ms = cfg.trend_window_ms
    if window_ms is None:
        if mean_pitch_hz is None:
            mean_pitch_hz = estimate_mean_pitch(s, cfg)
        window_ms = float(np.clip(1.5 * 1000.0 / mean_pitch_hz, 3.0, 25.0))
    width = int(round(window_ms * fs / 1000.0))
    if width % 2 == 0:
        width += 1
    width = max(width, 3)
    if s.samples.size < 3 * width:
        raise InvalidInputError(
            f"signal too short for ZFF: {s.samples.size} samples < 3 trend windows ({3 * width})")

    x = np.diff(s.samples, prepend=s.samples[:1]).astype(np.longdouble)
    y = x
    for _ in range(4):  # two cascaded double-poles at DC
        y = np.cumsum(y)
    for _ in range(cfg.trend_passes):
        y = y - centered_moving_average(y, width)

    y = np.asarray(y, dtype=np.float64)
    guard = min(2 * width, y.size)
    y[:guard] = 0.0
    y[y.size - guard:] = 0.0
    return Signal(y, fs)


def extract_epochs(y: Signal) -> EpochList:
    """All zero crossings of a ZFF output, refined to the sample nearest zero.

    Crossings within 1 ms of an already accepted crossing, or within
    ``BOUNDARY_GUARD_SAMPLES`` of either boundary, are discarded.  Rising and
    falling crossings are both kept, which makes the result identical for
    ``y`` and ``-y``.
    """
    v = y.samples
    fs = y.sample_rate_hz
    prod = v[:-1] * v[1:]
    locs = np.nonzero(prod < 0.0)[0]
    if locs.size == 0:
        return EpochList(np.empty(0, dtype=np.int64), fs)
    refined = np.where(np.abs(v[locs]) <= np.abs(v[locs + 1]), locs, locs + 1)

    min_gap = int(round(fs / 1000.0))
    lo = BOUNDARY_GUARD_SAMPLES
    hi = v.size - BOUNDARY_GUARD_SAMPLES
    accepted = []
    last = -min_gap - 1
    for idx in refined:
        if idx < lo or idx >= hi:
            continue
        if idx - last < min_gap:
            continue
        accepted.append(int(idx))
        last = int(idx)
    return EpochList(np.asarray(accepted, dtype=np.int64), fs)
