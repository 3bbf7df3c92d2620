"""Residual-skewness (reskew) polarity baseline.

The speech is inverse-filtered frame by frame with autocorrelation LP
coefficients; smoothing and leaky integration of the residual give a rough
glottal-flow approximation whose skewness carries the polarity: the flow is
a train of one-sided bumps, so its third moment changes sign with the
recording polarity while being indifferent to the vocal-tract shape that
confuses waveform-level statistics.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.signal import filtfilt, lfilter

from .dsp import butterworth, centered_moving_average
from .epochs import estimate_mean_pitch
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

_LAG_BLOCK_FRAMES = 256  # windowed LP frames copied per block of lags
_TAP_BLOCK_VALUES = 1 << 17  # blended LP taps per block of hop rows (1 MiB)


def _lp_order(order: int | None, sample_rate_hz: int) -> int:
    if order is None:
        return int(np.clip(round(sample_rate_hz / 1000.0) + 2, 4, 40))
    if not (isinstance(order, Integral) and 4 <= order <= 40):
        raise InvalidInputError(f"order must be an integer in [4, 40], got {order}")
    return order


def levinson(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch Levinson-Durbin recursion.

    ``r`` holds autocorrelation lags 0..p per row, one row (1-D) or a matrix
    of rows (2-D) with at least the zero lag.  Returns (a, err, ok) where
    ``a`` are the prediction polynomials [1, a1..ap], ``err`` the final
    prediction error, and ``ok`` flags rows whose prediction error stayed
    positive throughout the recursion.  Rows that break down keep the
    coefficients computed up to the failing stage and are marked not-ok;
    inf or NaN lags, or an overflow, break a row down without a warning.
    Any other shape raises ``InvalidInputError``.
    The recursion runs on the live rows only, compacted at each stage where
    a row breaks down, which is then written back as it stands.  A row's
    arithmetic does not depend on the others, so the result is bit-identical
    to masking the dead rows at every stage of a recursion over all of them.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim not in (1, 2) or r.shape[-1] == 0:
        raise InvalidInputError(
            f"lags must be a 1-D or 2-D array with a zero lag, got shape {r.shape}")
    r = np.atleast_2d(r)
    nf, p1 = r.shape
    a = np.zeros((nf, p1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    live = np.flatnonzero(err > 0.0)
    a_live, r_live, err_live = a[live], r[live], err[live]
    # inf or NaN lags, or an overflow, leave a row a non-positive or NaN error
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, p1):
            acc = np.einsum("fj,fj->f", a_live[:, 1:i], r_live[:, i - 1:0:-1])  # +0.0 at i = 1
            k = -(r_live[:, i] + acc) / err_live
            a_live[:, 1:i] = a_live[:, 1:i] + k[:, None] * a_live[:, i - 1:0:-1]
            a_live[:, i] = k
            err_live = err_live * (1.0 - k * k)
            healthy = err_live > 0.0
            if not healthy.all():  # write the broken rows back as they stand, then drop them
                broken = ~healthy
                a[live[broken]] = a_live[broken]
                err[live[broken]] = err_live[broken]
                live = live[healthy]
                a_live, r_live, err_live = a_live[healthy], r_live[healthy], err_live[healthy]
    a[live] = a_live
    err[live] = err_live
    ok = np.zeros(nf, dtype=bool)
    ok[live] = True
    return a, err, ok


def lp_residual(s: Signal, order: int | None = None) -> np.ndarray:
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
    The windowed frames behind the lags are copied ``_LAG_BLOCK_FRAMES``
    frames at a time, each block freed before the next.  Each lag is one
    BLAS inner product per row (a batched 1 x n by n x 1 ``matmul``, which
    numpy runs as ``ddot``), whose bits do not depend on the row's block or
    address, so the coefficients are bit-identical at any block size and to
    those of a whole-signal frame matrix.  (OpenBLAS splits a dot product of
    more than 10,000 values over its threads, so above 400 kHz their last
    bits can depend on the BLAS thread count.)  A frame whose lags overflow
    does so silently; its Levinson recursion breaks down.
    The overlap-add is one time-varying FIR, ``out[n] = sum_k x[n-k] c_k[n]``,
    so each sample is filtered once, not once per frame that covers it:
    ``c_k[n]`` sums ``window[n - start] * a[k]`` over the hop-grid frames that
    cover n, leaving out a tap that reaches before its frame's start, as each
    frame's filter starts at rest.  Every a[0] is 1, so the blended a[0] is the
    overlap-add weight.  In exact arithmetic this is the per-frame overlap-add;
    its sums run in another order, so the residual differs from a per-frame
    ``lfilter`` loop's by a few ulps of the largest residual nearby (and is
    exactly zero where that is zero), while the coefficients are bit-identical
    to that loop's.  The taps are blended in blocks of hop rows of at most
    ``_TAP_BLOCK_VALUES`` taps, each one ``matmul`` of the covering frames'
    taps with the window cut into hop-long chunks, then filtered by one
    ``einsum`` over a strided view of the samples; only the first and last
    blocks copy theirs, zero-padded.  The residual is the same bit for bit at
    any block size.  The peak memory is the residual, the coefficients and one
    block: on a 20 s input at 16 kHz, about twice the input's size.
    The frame off the hop grid is filtered on its own and added last.
    A frame must hold more than order + 1 samples to fit order coefficients
    (this rejects only rates below 1.7 kHz).
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

    grid = np.arange(0, x.size - frame + 1, hop)
    starts = grid if grid[-1] + frame == x.size else np.append(grid, x.size - frame)
    window = np.hamming(frame)

    frames = sliding_window_view(x, frame)
    lags = np.empty((len(starts), order + 1))
    for b in range(0, len(starts), _LAG_BLOCK_FRAMES):
        windowed = frames[starts[b:b + _LAG_BLOCK_FRAMES]]
        windowed *= window
        # a frame whose lags overflow breaks its Levinson recursion down
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(order + 1):  # one BLAS dot product per row
                lags[b:b + _LAG_BLOCK_FRAMES, k] = np.matmul(windowed[:, None, :frame - k],
                                                             windowed[:, k:, None])[:, 0, 0]
        del windowed

    coeffs, _, ok = levinson(lags)
    # row 0 is the identity filter; each frame takes the row of its last healthy
    # frame, reversed: column i is tap order - i, which multiplies x[n - order + i]
    identity = np.zeros((1, order + 1))
    identity[0, 0] = 1.0
    last_ok = np.maximum.accumulate(np.where(ok, np.arange(1, len(starts) + 1), 0))
    taps = np.concatenate([identity, coeffs])[last_ok, ::-1]
    del lags, coeffs

    # Hop row r holds samples r*hop .. r*hop + hop - 1.  Grid frame f covers
    # rows f .. f + chunks - 1 and weighs row f + d with window chunk d, so row
    # r blends the frames r - chunks + 1 .. r with the chunks chunks - 1 .. 0.
    # kernel[i, e, j] is that chunk's weight for column i at sample j of the
    # row, zero where the column's tap reaches before the frame's start.
    chunks = -(-frame // hop)
    pieces = np.zeros(chunks * hop)
    pieces[:frame] = window
    in_frame = np.arange(chunks - 1, -1, -1)[:, None] * hop + np.arange(hop)
    kernel = np.where(in_frame >= np.arange(order, -1, -1)[:, None, None], pieces[in_frame], 0.0)
    rows = -(-x.size // hop)
    # Two rows at least: numpy runs a one-row matmul as a BLAS gemv, which
    # rounds otherwise.  A last block of one row is safe: only the last grid
    # frame covers it, so each of its sums has one nonzero term.
    block = max(_TAP_BLOCK_VALUES // (hop * (order + 1)), 2)
    padded = np.zeros((rows + chunks - 1, order + 1))  # grid frame f in row f + chunks - 1
    padded[chunks - 1:chunks - 1 + len(grid)] = taps[:len(grid)]
    covering = sliding_window_view(padded, chunks, axis=0).transpose(1, 0, 2)

    # samples from `tail` on wait for the frame off the hop grid, if there is one
    tail = starts[-1] if len(starts) > len(grid) else x.size
    out = np.empty(x.size)
    tail_weight = np.empty(x.size - tail)
    for r0 in range(0, rows, block):
        r1 = min(r0 + block, rows)
        blended = np.matmul(covering[:, r0:r1], kernel)  # column, row, sample in row
        lo, hi = r0 * hop - order, r1 * hop
        samples = x[max(lo, 0):hi]
        if lo < 0 or hi > x.size:
            samples = np.pad(samples, (max(-lo, 0), max(hi - x.size, 0)))
        step = samples.strides[0]
        past = as_strided(samples, (r1 - r0, order + 1, hop), (hop * step, step, step),
                          writeable=False)  # row, column, sample in row
        residual = np.einsum("rij,irj->rj", past, blended).ravel()
        weight = blended[order].ravel()  # the blended a[0]
        n0, n1 = r0 * hop, min(hi, x.size)
        cut = min(max(tail, n0), n1)
        # every sample lies in a frame, and the Hamming window is positive
        out[n0:cut] = residual[:cut - n0] / weight[:cut - n0]
        out[cut:n1] = residual[cut - n0:n1 - n0]
        tail_weight[cut - tail:n1 - tail] = weight[cut - n0:n1 - n0]
        del blended, weight  # a view of the block would keep it alive into the next
    if tail < x.size:
        out[tail:] += np.correlate(x[tail:], taps[-1], "full")[:frame] * window
        tail_weight += window
        out[tail:] /= tail_weight
    return out


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


def glottal_flow_estimate(s: Signal, order: int | None = None, *,
                          mean_pitch_hz: float) -> np.ndarray:
    """Rough glottal-flow approximation from the LP residual.

    The residual at LP order ``order`` (default: ``lp_residual``'s rule) is
    lowpass-smoothed (whitening ringing removed), leaky-integrated over
    roughly ``INTEGRATION_PERIODS`` pitch periods, and detrended with a
    centered moving average of ``DETREND_PERIODS`` pitch periods so that
    integration drift and sub-pitch noise do not drown the flow bumps.
    ``mean_pitch_hz`` is ``estimate_mean_pitch``'s result; it must be
    positive and finite.
    """
    fs = s.sample_rate_hz
    if not 0.0 < mean_pitch_hz < np.inf:
        raise InvalidInputError(f"mean pitch must be positive and finite, got {mean_pitch_hz}")
    b, a = butterworth(4, fs, RESIDUAL_SMOOTH_HZ)
    smooth = filtfilt(b, a, lp_residual(s, order))

    tau = INTEGRATION_PERIODS * fs / mean_pitch_hz
    pole = float(np.exp(-1.0 / tau))
    g = lfilter([1.0], [1.0, -pole], smooth)
    return g - centered_moving_average(g, int(round(DETREND_PERIODS * fs / mean_pitch_hz)))


def reskew_statistic(s: Signal) -> float:
    """Skewness of the glottal-flow approximation; positive for positive polarity.

    Odd under sample negation and invariant under positive rescaling.
    """
    return skewness(glottal_flow_estimate(s, mean_pitch_hz=estimate_mean_pitch(s)))


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
