"""Residual-skewness (reskew) polarity baseline.

The speech is inverse-filtered frame by frame with autocorrelation LP
coefficients; smoothing and leaky integration of the residual give a rough
glottal-flow approximation whose skewness carries the polarity: the flow is
a train of one-sided bumps, so its third moment changes sign with the
recording polarity while being indifferent to the vocal-tract shape that
confuses waveform-level statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, filtfilt, lfilter

from .epochs import ZffConfig, estimate_mean_pitch
from .smoothing import centered_moving_average
from .types import (InvalidInputError, Polarity, PolarityDecision, Signal, UndefinedStatisticError,
                    detector_input)

# |statistic| below this is treated as a tie.
INDETERMINATE_BAND = 1e-6

# Calibrated on the synthetic oracle: positive glottal-skewness => positive polarity.
STATISTIC_SIGN_FOR_POSITIVE = +1


@dataclass(frozen=True)
class LpConfig:
    """Linear-prediction and glottal-approximation parameters.

    ``order = None`` resolves to round(fs/1000) + 2, clamped to [4, 40].
    The leaky-integration time constant is ``integration_periods`` mean
    pitch periods.  ``detect_polarity_hp`` takes no LpConfig: it uses
    ``order = HP_RESIDUAL_ORDER`` (8) with the other fields at their defaults.
    """

    order: int | None = None
    frame_ms: float = 25.0
    hop_ms: float = 5.0
    residual_smooth_hz: float = 800.0
    integration_periods: float = 2.0
    detrend_periods: float = 1.2

    def __post_init__(self):
        if self.order is not None and not (isinstance(self.order, Integral) and 4 <= self.order <= 40):
            raise InvalidInputError(f"order must be an integer in [4, 40], got {self.order}")
        if not (0 < self.hop_ms <= self.frame_ms):
            raise InvalidInputError("hop_ms must lie in (0, frame_ms]")
        if self.residual_smooth_hz <= 0:
            raise InvalidInputError("residual_smooth_hz must be positive")

    def resolved_order(self, sample_rate_hz: int) -> int:
        if self.order is not None:
            return self.order
        return int(np.clip(round(sample_rate_hz / 1000.0) + 2, 4, 40))


def levinson(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch Levinson-Durbin recursion.

    ``r`` holds autocorrelation lags 0..p per row.  Returns (a, err, ok)
    where ``a`` are the prediction polynomials [1, a1..ap], ``err`` the final
    prediction error, and ``ok`` flags rows whose prediction error stayed
    positive throughout the recursion.  Rows that break down keep the
    coefficients computed up to the failing stage and are marked not-ok.
    """
    r = np.atleast_2d(np.asarray(r, dtype=np.float64))
    nf, p1 = r.shape
    p = p1 - 1
    a = np.zeros((nf, p1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    ok = err > 0.0
    for i in range(1, p + 1):
        if i > 1:
            acc = np.einsum("fj,fj->f", a[:, 1:i], r[:, i - 1:0:-1])
        else:
            acc = np.zeros(nf)
        safe = np.where(ok & (err > 0.0), err, 1.0)
        k = np.where(ok, -(r[:, i] + acc) / safe, 0.0)
        upd = a.copy()
        upd[:, i] = k
        if i > 1:
            upd[:, 1:i] = a[:, 1:i] + k[:, None] * a[:, i - 1:0:-1]
        a = np.where(ok[:, None], upd, a)
        err = np.where(ok, err * (1.0 - k * k), err)
        ok = ok & (err > 0.0)
    return a, err, ok


def lp_residual(s: Signal, cfg: LpConfig | None = None) -> Signal:
    """Inverse-filter the signal with per-frame autocorrelation LP coefficients.

    Coefficients come from Hamming-windowed frames; the un-windowed frame
    samples are inverse-filtered and recombined by overlap-add with the same
    window as weight, normalized so every sample has total weight one.
    The filtered frames are strided views of the signal, not copies; only
    the windowed frames behind the lags are copied, and they are freed once
    the lags are computed.  Each frame's FIR runs through ``np.convolve``,
    the same arithmetic as ``lfilter``'s FIR path, so the residual matches a
    per-frame ``lfilter`` loop bit for bit.
    Zero-energy frames contribute a zero residual; a frame whose Levinson
    recursion breaks down falls back to the previous healthy frame's
    coefficients, or to the identity filter before the first healthy frame.
    """
    cfg = cfg or LpConfig()
    fs = s.sample_rate_hz
    x = s.samples
    frame = int(round(cfg.frame_ms * fs / 1000.0))
    hop = int(round(cfg.hop_ms * fs / 1000.0))
    if x.size < 2 * frame:
        raise InvalidInputError(
            f"signal too short for LP analysis: {x.size} samples < 2 frames ({2 * frame})")
    order = cfg.resolved_order(fs)

    starts = list(range(0, x.size - frame + 1, hop))
    if starts[-1] + frame < x.size:
        starts.append(x.size - frame)
    starts = np.asarray(starts)
    window = np.hamming(frame)

    frames = sliding_window_view(x, frame)
    windowed = frames[starts]
    windowed *= window
    lags = np.empty((len(starts), order + 1))
    for k in range(order + 1):
        lags[:, k] = np.einsum("fj,fj->f", windowed[:, :frame - k], windowed[:, k:])
    del windowed

    coeffs, _, ok = levinson(lags)
    # row 0 is the identity filter; each frame takes the row of its last healthy frame
    identity = np.zeros((1, order + 1))
    identity[0, 0] = 1.0
    last_ok = np.maximum.accumulate(np.where(ok, np.arange(1, len(starts) + 1), 0))
    coeffs = np.concatenate([identity, coeffs])[last_ok]

    out = np.zeros(x.size)
    weight = np.zeros(x.size)
    for f, k in enumerate(starts):
        res = np.convolve(coeffs[f], frames[k])[:frame]
        out[k:k + frame] += res * window
        weight[k:k + frame] += window
    weight[weight == 0.0] = 1.0
    return Signal(out / weight, fs)


def skewness(x) -> float:
    """Standardized third central moment m3 / m2^(3/2) (biased sample moments)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 3:
        raise UndefinedStatisticError("skewness needs at least 3 samples")
    if float(arr.max()) == float(arr.min()):
        raise UndefinedStatisticError("skewness is undefined for a constant sequence")
    d = arr - arr.mean()
    m2 = np.mean(d * d)
    m3 = np.mean(d * d * d)
    denom = m2 ** 1.5
    if not (0.0 < denom < np.inf and np.isfinite(m3)):
        raise UndefinedStatisticError("skewness is undefined: the moments under- or overflow")
    return float(m3 / denom)


def glottal_flow_estimate(s: Signal, cfg: LpConfig | None = None,
                          mean_pitch_hz: float | None = None) -> Signal:
    """Rough glottal-flow approximation from the LP residual.

    The residual is lowpass-smoothed (whitening ringing removed), leaky-
    integrated over roughly ``integration_periods`` pitch periods, and
    detrended with a centered moving average of ``detrend_periods`` pitch
    periods so that integration drift and sub-pitch noise do not drown the
    flow bumps.
    """
    cfg = cfg or LpConfig()
    fs = s.sample_rate_hz
    if mean_pitch_hz is None:
        mean_pitch_hz = estimate_mean_pitch(s, ZffConfig())
    e = lp_residual(s, cfg).samples

    nyq = fs / 2.0
    cutoff = min(cfg.residual_smooth_hz, 0.95 * nyq)
    b, a = butter(4, cutoff / nyq, btype="low")
    smooth = filtfilt(b, a, e)

    tau = cfg.integration_periods * fs / mean_pitch_hz
    pole = float(np.exp(-1.0 / tau))
    g = lfilter([1.0], [1.0, -pole], smooth)
    g = g - centered_moving_average(g, int(round(cfg.detrend_periods * fs / mean_pitch_hz)))
    return Signal(g, fs)


def reskew_statistic(s: Signal, cfg: LpConfig | None = None) -> float:
    """Skewness of the glottal-flow approximation; positive for positive polarity.

    Odd under sample negation and invariant under positive rescaling.
    """
    g = glottal_flow_estimate(s, cfg)
    return skewness(g.samples)


def detect_polarity_reskew(s: Signal, cfg: LpConfig | None = None) -> PolarityDecision:
    """Decide polarity from the sign of the glottal-skewness statistic."""
    s = detector_input(s)
    try:
        delta = reskew_statistic(s, cfg)
    except UndefinedStatisticError:
        return PolarityDecision(Polarity.INDETERMINATE, statistic=0.0)
    if abs(delta) < INDETERMINATE_BAND:
        return PolarityDecision(Polarity.INDETERMINATE, statistic=delta)
    if delta * STATISTIC_SIGN_FOR_POSITIVE > 0:
        return PolarityDecision(Polarity.POSITIVE, statistic=delta)
    return PolarityDecision(Polarity.NEGATIVE, statistic=delta)
