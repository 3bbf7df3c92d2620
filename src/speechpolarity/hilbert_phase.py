"""Polarity detection from analytic-signal phase at Hilbert-envelope peaks.

The detector starts from ``frontend.front_end``: the 60-1600 Hz band of the
power-of-two rescaled input and its mean pitch.  Unvoiced input abstains there,
before any stage below runs.  Per utterance: every zero crossing of the zero-frequency-filtered band,
rising and falling alike, is an anchor, so the anchors of a signal and its
negation are the same.  For each anchor the argmax of the Hilbert envelope
of the differentiated band within +-``PEAK_SEARCH_MS`` is kept if it clears
``PROMINENCE_FLOOR``; with about two crossings per period those windows
overlap several deep.  Each peak contributes a vote read from the cosine
phase of the glottal-flow approximation over the early closed phase, from
the peak to ``PHASE_SPAN_PERIODS`` mean pitch periods after it.

Differentiating tilts the band toward the broadband closure event and away
from low-frequency formant ringing.  The peaks land at closure or in the
closed phase that follows it: on the synthetic corpus the voting peaks sit
0.02 / 0.09 / 0.26 periods after the preceding closure (10th / 50th / 90th
percentile) clean, 0.04 / 0.15 / 0.59 in white noise at 0 dB, and in white
noise fewer of the votes read after them go wrong than with peaks of the
band itself.  For a positive-polarity recording the flow falls into its
minimum at closure and stays low while the glottis is closed, so the phase
read just after the peak is negative; the calibrated sign constant maps the
majority vote onto a polarity.

The read starts at the peak and spans only an eighth of a period, because
the flow's trough is not always wide: when a formant sits on the
fundamental, the inverse filter notches the fundamental out of the flow,
which then keeps only a narrow trough at closure followed by a harmonic
bump 0.15-0.3 periods later.  A window centred on the peak, or one reaching
past that bump, reads the two halves of the cycle against each other.

Every stage runs at no more than ``HP_ANALYSIS_RATE_HZ`` (16 kHz), the
front end's band rate: neither the anchors nor the 60-1600 Hz band need
more, and the order-8 LP that suffices for that band at 16 kHz gives
confidently wrong flows at 32-48 kHz.  The band is the longest prefix
whose length is 11-smooth, so both Hilbert transforms are one FFT pair at
a fast length; the trim drops at most 2.0% of the samples from 1,600
(100 ms at 16 kHz) to 20,000, 1.0% up to 400,000 and 0.6% up to 10^6
(5.9% at the shortest input, 100 ms at 1 kHz), and the ZFF already zeroes
two trend windows at each end.

The method is one fixed pipeline with nothing settable: the analysis rate
and the band edges (``frontend``'s ``HP_ANALYSIS_RATE_HZ``, ``BAND_LOW_HZ``
and ``BAND_HIGH_HZ``), the peak search, the span and the abstention level
of the phase read, and the vote count below which the detector abstains
are module constants (``PEAK_SEARCH_MS``, ``PROMINENCE_FLOOR``,
``PHASE_SPAN_PERIODS``, ``MIN_PHASE_MAGNITUDE``, ``MIN_VOTES``).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import analytic_signal, cosine_phase, hilbert_envelope
from .epochs import extract_epochs, zff_filter
from .frontend import UNVOICED, front_end
from .reskew import glottal_flow_estimate, lp_residual
from .types import InvalidInputError, Polarity, PolarityDecision, Signal

# LP order for the band-limited detector path at HP_ANALYSIS_RATE_HZ or below:
# enough poles for the formants inside the band plus its edges.  At high pitch
# the autocorrelation fit can still lock a pole pair onto a single harmonic
# (F1 on f0 or 2 f0) and notch it out of the flow; the short read after each
# closure peak is what keeps the votes right when that happens.
HP_RESIDUAL_ORDER = 8

# Calibrated on the synthetic oracle: a negative vote majority => positive polarity.
VOTE_SIGN_FOR_POSITIVE = -1

PEAK_SEARCH_MS = 10.0  # half-width of the peak search around each anchor
PROMINENCE_FLOOR = 0.05  # of the global envelope maximum
PHASE_SPAN_PERIODS = 0.125  # length of the phase read after each peak
MIN_PHASE_MAGNITUDE = 0.25  # weaker phase averages abstain
MIN_VOTES = 3  # fewer non-abstaining votes, or a tie, is indeterminate
_PEAK_CHUNK_EPOCHS = 1024  # epoch windows gathered per argmax


def select_he_peaks(envelope: np.ndarray, epochs: np.ndarray, sample_rate_hz: int) -> np.ndarray:
    """Envelope maxima near the anchor instants.

    ``epochs``, 1-D indices into ``envelope`` (``extract_epochs``' result)
    both at ``sample_rate_hz``, are taken as int64; one outside
    ``[0, envelope.size)`` is rejected, and no epochs give no peaks.  For
    each epoch, in any order, the envelope argmax within
    +-``PEAK_SEARCH_MS`` is taken (the first of equal maxima; the window is
    cut off at either end of the envelope), kept only if it reaches
    ``PROMINENCE_FLOOR`` times the global envelope maximum; duplicates
    collapse to one index and the result is ascending.

    The windows are rows of a strided view of the envelope padded with
    ``-inf``, so the cut-off windows need no special case; they are
    gathered ``_PEAK_CHUNK_EPOCHS`` epochs at a time, which bounds the
    temporary copy.
    """
    epochs = np.asarray(epochs, dtype=np.int64)
    if epochs.size and (epochs.ndim != 1 or epochs.min() < 0 or epochs.max() >= envelope.size):
        raise InvalidInputError(f"epochs must be 1-D indices in [0, {envelope.size}), got "
                                f"{epochs.min()}..{epochs.max()} in shape {epochs.shape}")
    half = int(round(PEAK_SEARCH_MS * sample_rate_hz / 1000.0))
    floor = PROMINENCE_FLOOR * float(envelope.max())
    pad = np.full(half, -np.inf)
    windows = sliding_window_view(np.concatenate([pad, envelope, pad]), 2 * half + 1)
    # row e of the padded view is the window centred on envelope sample e
    peaks = epochs - half
    for c in range(0, peaks.size, _PEAK_CHUNK_EPOCHS):
        chunk = epochs[c:c + _PEAK_CHUNK_EPOCHS]
        peaks[c:c + _PEAK_CHUNK_EPOCHS] += np.argmax(windows[chunk], axis=1)
    return np.unique(peaks[envelope[peaks] >= floor])


def _phase_reads(phase: np.ndarray, sample_rate_hz: int, peaks: np.ndarray,
                 pitch_hz: float) -> np.ndarray:
    # np.mean(phase[p:p + span + 1]) per peak: one row mean where the slice is
    # whole (the same pairwise sum and division), a slice where the end of
    # the series cuts it short.
    width = int(round(PHASE_SPAN_PERIODS * sample_rate_hz / pitch_hz)) + 1
    means = np.empty(peaks.size)
    whole = peaks <= phase.size - width
    if whole.any():
        means[whole] = sliding_window_view(phase, width)[peaks[whole]].mean(axis=1)
    for i in np.flatnonzero(~whole):
        means[i] = np.mean(phase[peaks[i]:])
    return means


def detect_polarity_hp(s: Signal) -> PolarityDecision:
    """Vote-based polarity decision; see the module docstring for the pipeline.

    Unvoiced input (see ``frontend``) is ``UNVOICED``.  With fewer than
    ``MIN_VOTES`` non-abstaining votes the decision is indeterminate;
    otherwise it is ``Polarity.of_sign`` of ``VOTE_SIGN_FOR_POSITIVE`` (see
    ``calibrate``) times the vote difference, so a tie is indeterminate.
    """
    _, band, pitch = front_end(s)
    if not pitch.voiced:
        return UNVOICED
    fs = band.sample_rate_hz
    epochs = extract_epochs(zff_filter(band, pitch.hz))
    peaks = select_he_peaks(hilbert_envelope(analytic_signal(np.gradient(band.samples))), epochs,
                            fs)

    flow = glottal_flow_estimate(lp_residual(band, HP_RESIDUAL_ORDER), fs, mean_pitch_hz=pitch.hz)
    del band  # freed before the flow's Hilbert transform
    means = _phase_reads(cosine_phase(analytic_signal(flow)), fs, peaks, pitch.hz)
    positive = int(np.count_nonzero(means >= MIN_PHASE_MAGNITUDE))
    negative = int(np.count_nonzero(means <= -MIN_PHASE_MAGNITUDE))
    polarity = (Polarity.INDETERMINATE if positive + negative < MIN_VOTES
                else Polarity.of_sign(VOTE_SIGN_FOR_POSITIVE * (positive - negative)))
    return PolarityDecision(polarity, positive_votes=positive, negative_votes=negative,
                            anchors_used=int(peaks.size))
