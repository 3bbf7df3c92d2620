"""Polarity detection from analytic-signal phase at excitation-anchored peaks.

Per utterance: zero-frequency filtering provides polarity-invariant anchor
instants; Hilbert-envelope peaks of the differentiated band-limited signal
are selected near those anchors; each peak contributes a vote read from the
cosine phase of the glottal-flow approximation over the early closed phase,
from the peak to ``PHASE_SPAN_PERIODS`` mean pitch periods after it.

Differentiating tilts the band toward the broadband closure event and away
from low-frequency formant ringing.  The peaks land at closure or in the
closed phase that follows it (up to about 0.4 periods later on the
synthetic corpus), and in white noise fewer of the votes read after them
go wrong than with peaks of the band itself.  For a positive-polarity
recording the flow falls into its minimum at closure and stays low while
the glottis is closed, so the phase read just after the peak is negative;
the calibrated sign constant maps the majority vote onto a polarity.

The read starts at the peak and spans only an eighth of a period, because
the flow's trough is not always wide: when a formant sits on the
fundamental, the inverse filter notches the fundamental out of the flow,
which then keeps only a narrow trough at closure followed by a harmonic
bump 0.15-0.3 periods later.  A window centred on the peak, or one reaching
past that bump, reads the two halves of the cycle against each other.

The band-limited front end (60-1600 Hz) and the tract-removing flow
approximation are what make the votes indifferent to the formant
configuration and to broadband noise; the vote logic itself reads the
analytic-signal phase at envelope peaks.

The method is one fixed pipeline with nothing settable: the band edges,
the peak search, the span and the abstention level of the phase read, and
the vote count below which the detector abstains are module constants
(``BAND_LOW_HZ``, ``BAND_HIGH_HZ``, ``PEAK_SEARCH_MS``, ``PROMINENCE_FLOOR``,
``PHASE_SPAN_PERIODS``, ``MIN_PHASE_MAGNITUDE``, ``MIN_VOTES``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, filtfilt

from .dsp import analytic_signal, cosine_phase, hilbert_envelope
from .epochs import estimate_mean_pitch, extract_epochs, zff_filter
from .reskew import glottal_flow_estimate
from .types import (EnvelopeSeries, EpochList, InvalidInputError, PhaseSeries, Polarity,
                    PolarityDecision, Signal, detector_input)

# LP order for the band-limited detector path: enough poles for the formants
# inside the band plus its edges.  At high pitch the autocorrelation fit can
# still lock a pole pair onto a single harmonic (F1 on f0 or 2 f0) and notch
# it out of the flow; the short read after each closure peak is what keeps
# the votes right when that happens.
HP_RESIDUAL_ORDER = 8

# Calibrated on the synthetic oracle: a negative vote majority => positive polarity.
VOTE_SIGN_FOR_POSITIVE = -1

# Front-end pass band; the upper edge is capped at 0.95 Nyquist.
BAND_LOW_HZ = 60.0
BAND_HIGH_HZ = 1600.0
PEAK_SEARCH_MS = 10.0  # half-width of the peak search around each anchor
PROMINENCE_FLOOR = 0.05  # of the global envelope maximum
PHASE_SPAN_PERIODS = 0.125  # length of the phase read after each peak
MIN_PHASE_MAGNITUDE = 0.25  # weaker phase averages abstain
MIN_VOTES = 3  # fewer non-abstaining votes, or a tie, is indeterminate
_PEAK_CHUNK_EPOCHS = 1024  # epoch windows gathered per argmax


def select_he_peaks(env: EnvelopeSeries, epochs: EpochList) -> np.ndarray:
    """Envelope maxima near the anchor instants.

    For each epoch the envelope argmax within +-``PEAK_SEARCH_MS`` is taken
    (the first of equal maxima; the window is cut off at either end of the
    envelope), kept only if it reaches ``PROMINENCE_FLOOR`` times the
    global envelope maximum; duplicates collapse to one index and the
    result is ascending.  Epochs at or beyond the envelope's end are
    rejected.

    The windows are rows of a strided view of the envelope padded with
    ``-inf``, so the cut-off windows need no special case; they are
    gathered ``_PEAK_CHUNK_EPOCHS`` epochs at a time, which bounds the
    temporary copy.
    """
    if env.sample_rate_hz != epochs.sample_rate_hz:
        raise InvalidInputError("envelope and epochs must share a sample rate")
    values = env.values
    if len(epochs) == 0:
        return np.empty(0, dtype=np.int64)
    if epochs.indices[-1] >= values.size:
        raise InvalidInputError(
            f"epoch index {epochs.indices[-1]} beyond the envelope's {values.size} samples")
    half = int(round(PEAK_SEARCH_MS * env.sample_rate_hz / 1000.0))
    floor = PROMINENCE_FLOOR * float(values.max())
    pad = np.full(half, -np.inf)
    windows = sliding_window_view(np.concatenate([pad, values, pad]), 2 * half + 1)
    # row e of the padded view is the window centred on envelope sample e
    peaks = epochs.indices - half
    for c in range(0, peaks.size, _PEAK_CHUNK_EPOCHS):
        chunk = epochs.indices[c:c + _PEAK_CHUNK_EPOCHS]
        peaks[c:c + _PEAK_CHUNK_EPOCHS] += np.argmax(windows[chunk], axis=1)
    return np.unique(peaks[values[peaks] >= floor])


def _phase_reads(phase: PhaseSeries, peaks: np.ndarray, pitch_hz: float) -> np.ndarray:
    # np.mean(v[p:p + span + 1]) per peak: one row mean where the slice is
    # whole (the same pairwise sum and division), a slice where the end of
    # the series cuts it short.
    v = phase.values
    width = int(round(PHASE_SPAN_PERIODS * phase.sample_rate_hz / pitch_hz)) + 1
    means = np.empty(peaks.size)
    whole = peaks <= v.size - width
    if whole.any():
        means[whole] = sliding_window_view(v, width)[peaks[whole]].mean(axis=1)
    for i in np.flatnonzero(~whole):
        means[i] = np.mean(v[peaks[i]:])
    return means


@lru_cache
def _band_filter(sample_rate_hz: int) -> tuple[np.ndarray, np.ndarray]:
    # detector_input requires fs >= 1 kHz, so the upper edge is at least 475 Hz
    nyq = sample_rate_hz / 2.0
    high = min(BAND_HIGH_HZ, 0.95 * nyq)
    b, a = butter(2, [BAND_LOW_HZ / nyq, high / nyq], btype="band")
    b.flags.writeable = a.flags.writeable = False
    return b, a


def _band_limit(s: Signal) -> Signal:
    # the Butterworth band-pass is designed once per sample rate
    b, a = _band_filter(s.sample_rate_hz)
    return Signal(filtfilt(b, a, s.samples), s.sample_rate_hz)


def detect_polarity_hp(s: Signal) -> PolarityDecision:
    """Vote-based polarity decision; see the module docstring for the pipeline.

    With fewer than ``MIN_VOTES`` non-abstaining votes, or a tie, the
    decision is indeterminate; otherwise the vote majority maps onto a
    polarity through ``VOTE_SIGN_FOR_POSITIVE`` (see ``calibrate``).
    """
    s = detector_input(s)

    band = _band_limit(s)
    pitch = estimate_mean_pitch(band)
    epochs = extract_epochs(zff_filter(band, mean_pitch_hz=pitch))
    derivative = Signal(np.gradient(band.samples), band.sample_rate_hz)
    peaks = select_he_peaks(hilbert_envelope(analytic_signal(derivative)), epochs)

    positive = negative = 0
    if peaks.size:
        flow = glottal_flow_estimate(band, HP_RESIDUAL_ORDER, mean_pitch_hz=pitch)
        means = _phase_reads(cosine_phase(analytic_signal(flow)), peaks, pitch)
        positive = int(np.count_nonzero(means >= MIN_PHASE_MAGNITUDE))
        negative = int(np.count_nonzero(means <= -MIN_PHASE_MAGNITUDE))

    total = positive + negative
    if total < MIN_VOTES or positive == negative:
        polarity = Polarity.INDETERMINATE
    else:
        majority = 1 if positive > negative else -1
        polarity = Polarity.POSITIVE if majority == VOTE_SIGN_FOR_POSITIVE else Polarity.NEGATIVE
    return PolarityDecision(polarity, positive_votes=positive, negative_votes=negative,
                            anchors_used=int(peaks.size))
