"""Residual-skewness (reskew) polarity baseline.

The speech is inverse-filtered frame by frame with autocorrelation LP
coefficients; smoothing and leaky integration of the residual give a rough
glottal-flow approximation whose skewness carries the polarity: the flow is
a train of one-sided bumps, so its third moment changes sign with the
recording polarity while being indifferent to the vocal-tract shape that
confuses waveform-level statistics.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, filtfilt, lfilter

from .epochs import estimate_mean_pitch
from .smoothing import centered_moving_average
from .types import (InvalidInputError, Polarity, PolarityDecision, Signal, UndefinedStatisticError,
                    detector_input)

# |statistic| below this is treated as a tie.
INDETERMINATE_BAND = 1e-6

# Calibrated on the synthetic oracle: positive glottal-skewness => positive polarity.
STATISTIC_SIGN_FOR_POSITIVE = +1

LP_FRAME_MS = 25.0
LP_HOP_MS = 5.0
# Glottal-flow approximation: residual lowpass cutoff, then the leaky
# integrator's time constant and the detrend window in mean pitch periods.
RESIDUAL_SMOOTH_HZ = 800.0
INTEGRATION_PERIODS = 2.0
DETREND_PERIODS = 1.2
_OLA_CHUNK_FRAMES = 1024  # filtered frames held at once for the overlap-add


def _lp_order(order: int | None, sample_rate_hz: int) -> int:
    if order is None:
        return int(np.clip(round(sample_rate_hz / 1000.0) + 2, 4, 40))
    if not (isinstance(order, Integral) and 4 <= order <= 40):
        raise InvalidInputError(f"order must be an integer in [4, 40], got {order}")
    return order


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
        if i > 1:
            np.copyto(a[:, 1:i], a[:, 1:i] + k[:, None] * a[:, i - 1:0:-1], where=ok[:, None])
        # k is +0.0 on rows that broke down, and their a[:, i] is still the initial +0.0
        a[:, i] = k
        err = np.where(ok, err * (1.0 - k * k), err)
        ok = ok & (err > 0.0)
    return a, err, ok


def _overlap_add(acc: np.ndarray, rows: np.ndarray, first: int, hop: int) -> None:
    # acc[(first + f) * hop + j] += rows[f, j], one hop-sized block of all
    # rows at a time.  Blocks go from the rows' last to their first, so each
    # sample takes the rows that cover it oldest first, as a loop over the
    # rows would.  acc needs hop samples beyond the last row's end.
    count, frame = rows.shape
    for d in range((frame - 1) // hop, -1, -1):
        block = rows[:, d * hop:(d + 1) * hop]
        start = (first + d) * hop
        acc[start:start + count * hop].reshape(count, hop)[:, :block.shape[1]] += block


def lp_residual(s: Signal, order: int | None = None) -> Signal:
    """Inverse-filter the signal with per-frame autocorrelation LP coefficients.

    The LP order is ``order``, an integer in [4, 40], or by default
    round(fs/1000) + 2 clamped to [4, 40]; ``detect_polarity_hp`` passes
    ``HP_RESIDUAL_ORDER`` (8).  Frame length and hop are the module
    constants ``LP_FRAME_MS`` and ``LP_HOP_MS``.
    Coefficients come from Hamming-windowed frames; the un-windowed frame
    samples are inverse-filtered and recombined by overlap-add with the same
    window as weight, normalized so every sample has total weight one.
    Frames start every hop; when the hops leave the last samples uncovered,
    one more frame ends at the signal's end.
    The filtered frames are strided views of the signal, not copies; only
    the windowed frames behind the lags are copied, and they are freed once
    the lags are computed.  Each frame's FIR is ``np.correlate`` of the frame
    with its coefficient row reversed, the rows reversed once per call: the
    C routine and operands of ``np.convolve`` without its per-call wrapper,
    and bitwise equal to ``lfilter``'s FIR path.  ``np.convolve`` swaps its
    operands unless the frame is the longer one, so a frame of at most
    order + 1 samples (possible only below 1.7 kHz) is rejected.  The
    filtered frames are windowed and overlap-added ``_OLA_CHUNK_FRAMES`` at
    a time, in hop-sized blocks that add the frames covering a sample
    oldest first, and the off-grid last frame is added last.  These are the
    additions of a per-frame loop in its order, so the residual matches a
    per-frame ``lfilter`` loop bit for bit.
    Zero-energy frames contribute a zero residual; a frame whose Levinson
    recursion breaks down falls back to the previous healthy frame's
    coefficients, or to the identity filter before the first healthy frame.
    """
    fs = s.sample_rate_hz
    order = _lp_order(order, fs)
    x = s.samples
    frame = int(round(LP_FRAME_MS * fs / 1000.0))
    hop = int(round(LP_HOP_MS * fs / 1000.0))
    if hop < 1:
        raise InvalidInputError(f"sample rate {fs} Hz is too low for {LP_HOP_MS:g} ms LP hops")
    if frame <= order + 1:
        raise InvalidInputError(
            f"LP frames of {frame} samples are too short for an order-{order} filter")
    if x.size < 2 * frame:
        raise InvalidInputError(
            f"signal too short for LP analysis: {x.size} samples < 2 frames ({2 * frame})")

    grid = (x.size - frame) // hop + 1  # frames on the hop grid
    starts = np.arange(grid) * hop
    if starts[-1] + frame < x.size:
        starts = np.append(starts, x.size - frame)
    window = np.hamming(frame)

    frames = sliding_window_view(x, frame)
    windowed = frames[starts]
    windowed *= window
    lags = np.empty((len(starts), order + 1))
    for k in range(order + 1):
        lags[:, k] = np.einsum("fj,fj->f", windowed[:, :frame - k], windowed[:, k:])
    del windowed

    coeffs, _, ok = levinson(lags)
    # row 0 is the identity filter; each frame takes the row of its last healthy
    # frame, reversed for np.correlate
    identity = np.zeros((1, order + 1))
    identity[0, 0] = 1.0
    last_ok = np.maximum.accumulate(np.where(ok, np.arange(1, len(starts) + 1), 0))
    taps = np.concatenate([identity, coeffs])[last_ok, ::-1]

    out = np.zeros(x.size + hop)
    weight = np.zeros(x.size + hop)
    for first in range(0, grid, _OLA_CHUNK_FRAMES):
        rows = np.empty((min(_OLA_CHUNK_FRAMES, grid - first), frame))
        for i, f in enumerate(range(first, first + len(rows))):
            rows[i] = np.correlate(frames[f * hop], taps[f], "full")[:frame]
        rows *= window
        _overlap_add(out, rows, first, hop)
        _overlap_add(weight, np.broadcast_to(window, rows.shape), first, hop)
    if len(starts) > grid:
        out[x.size - frame:x.size] += np.correlate(frames[-1], taps[-1], "full")[:frame] * window
        weight[x.size - frame:x.size] += window
    # every sample lies in a frame, and the Hamming window is positive
    return Signal(out[:x.size] / weight[:x.size], fs)


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


@lru_cache
def _smoothing_filter(sample_rate_hz: int) -> tuple[np.ndarray, np.ndarray]:
    nyq = sample_rate_hz / 2.0
    cutoff = min(RESIDUAL_SMOOTH_HZ, 0.95 * nyq)
    b, a = butter(4, cutoff / nyq, btype="low")
    b.flags.writeable = a.flags.writeable = False
    return b, a


def glottal_flow_estimate(s: Signal, order: int | None = None,
                          mean_pitch_hz: float | None = None) -> Signal:
    """Rough glottal-flow approximation from the LP residual.

    The residual at LP order ``order`` (default: ``lp_residual``'s rule) is
    lowpass-smoothed (whitening ringing removed), leaky-integrated over
    roughly ``INTEGRATION_PERIODS`` pitch periods, and detrended with a
    centered moving average of ``DETREND_PERIODS`` pitch periods so that
    integration drift and sub-pitch noise do not drown the flow bumps.
    The Butterworth lowpass is designed once per sample rate.
    """
    fs = s.sample_rate_hz
    if mean_pitch_hz is None:
        mean_pitch_hz = estimate_mean_pitch(s)
    e = lp_residual(s, order).samples

    b, a = _smoothing_filter(fs)
    smooth = filtfilt(b, a, e)

    tau = INTEGRATION_PERIODS * fs / mean_pitch_hz
    pole = float(np.exp(-1.0 / tau))
    g = lfilter([1.0], [1.0, -pole], smooth)
    g = g - centered_moving_average(g, int(round(DETREND_PERIODS * fs / mean_pitch_hz)))
    return Signal(g, fs)


def reskew_statistic(s: Signal) -> float:
    """Skewness of the glottal-flow approximation; positive for positive polarity.

    Odd under sample negation and invariant under positive rescaling.
    """
    g = glottal_flow_estimate(s)
    return skewness(g.samples)


def detect_polarity_reskew(s: Signal) -> PolarityDecision:
    """Decide polarity from the sign of the glottal-skewness statistic."""
    s = detector_input(s)
    try:
        delta = reskew_statistic(s)
    except UndefinedStatisticError:
        return PolarityDecision(Polarity.INDETERMINATE, statistic=0.0)
    if abs(delta) < INDETERMINATE_BAND:
        return PolarityDecision(Polarity.INDETERMINATE, statistic=delta)
    if delta * STATISTIC_SIGN_FOR_POSITIVE > 0:
        return PolarityDecision(Polarity.POSITIVE, statistic=delta)
    return PolarityDecision(Polarity.NEGATIVE, statistic=delta)
