"""The front end both detectors share: the input's rescale, ``hp``'s band and its mean pitch.

``front_end`` checks the input and finds the power of two that brings its
peak into [0.5, 1) (``FrontEnd.exponent``): a power-of-two scale leaves
every normal sample's mantissa as it is and keeps the LP lags of very loud
or very quiet input in the floating-point range.  It rescales the input by
that power, resamples it once, polyphase, to ``HP_ANALYSIS_RATE_HZ`` (16
kHz) if it is sampled faster, keeps the longest prefix whose length is
11-smooth (``prev_fast_len``: no prime factor above 11), and band-passes
that prefix to 60-1600 Hz.  ``FrontEnd.pitch`` is the band's mean pitch.

The module remembers the last ``Signal`` that passed ``front_end``'s checks:
a weak reference to it, its exponent and its pitch, no array.  On that same
object ``front_end`` still builds the band, which ``hp`` needs, but reuses
the pitch, and ``exponent_and_pitch``, all that ``reskew`` needs, does no
front-end work.  Object identity selects the entry, which is sound because a
``Signal``'s samples are read-only; a distinct ``Signal`` with equal samples
is analysed afresh.  The entry is one module global replaced as a whole, so
a concurrent call on another signal only misses.  One entry, not one per
``Signal``, makes perfbench's rounds over the same objects each pay
``hp``'s pitch estimate, as traffic that decides each input once does.

With fewer than ``PITCH_MIN_VOICED_FRAMES`` voiced 40 ms frames, which
includes every input shorter than 120 ms, the input has no pitch to speak
of: both detectors return ``UNVOICED`` at once, and no ZFF, Hilbert
transform or LP runs.  Otherwise ``hp`` carries on from the band, and
``reskew`` from the caller's input at its own rate and length, rescaled by
the front end's exponent, with the band's pitch.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np
from scipy.fft import prev_fast_len
from scipy.signal import resample_poly

from .dsp import zero_phase_butterworth
from .epochs import PitchEstimate, estimate_mean_pitch
from .types import InvalidInputError, Polarity, PolarityDecision, Signal

# Highest rate the band runs at; faster input is resampled to it once.
HP_ANALYSIS_RATE_HZ = 16000

# Pass band; the upper edge is capped at 0.95 Nyquist.
BAND_LOW_HZ = 60.0
BAND_HIGH_HZ = 1600.0

# Either detector's decision on input with too few voiced frames.
UNVOICED = PolarityDecision(Polarity.INDETERMINATE, reason="unvoiced")

# (weak reference to the last Signal front_end analysed, its exponent, its pitch)
_memo: tuple[weakref.ref, int, PitchEstimate] | None = None


class FrontEnd(NamedTuple):
    """``front_end``'s result; each detector unpacks it and drops the part it does not use."""

    exponent: int  # the input times 2**-exponent has its peak in [0.5, 1), or is all zero
    band: Signal  # the 60-1600 Hz band of its fast-length prefix, at no more than 16 kHz
    pitch: PitchEstimate  # the band's mean pitch and voiced-frame count


def front_end(s: Signal) -> FrontEnd:
    """Check and rescale ``s``, band-pass it at no more than 16 kHz, and estimate its pitch.

    Raises ``InvalidInputError`` for input shorter than 100 ms or sampled
    below 1 kHz.  The rescaled and resampled copies are freed once the band
    exists.  The pitch is that remembered for ``s`` if ``s`` is the last
    signal analysed here; otherwise it is estimated, and ``s`` is remembered.
    """
    global _memo
    if s.duration_s < 0.1:
        raise InvalidInputError("polarity detection needs at least 100 ms of audio")
    if s.sample_rate_hz < 1000:
        raise InvalidInputError("polarity detection needs a sample rate of at least 1 kHz")
    x, fs = s.samples, s.sample_rate_hz
    exponent = int(np.frexp(max(x.max(), -x.min()))[1])
    if exponent:
        x = np.ldexp(x, -exponent)
    if fs > HP_ANALYSIS_RATE_HZ:
        x, fs = resample_poly(x, HP_ANALYSIS_RATE_HZ, fs), HP_ANALYSIS_RATE_HZ
    x = x[:prev_fast_len(x.size)]  # both of hp's Hilbert transforms at a fast length
    # fs >= 1 kHz, so the upper band edge is at least 475 Hz
    band = Signal(zero_phase_butterworth(x, 2, fs, BAND_HIGH_HZ, BAND_LOW_HZ), fs)
    del x
    remembered = _recall(s)
    if remembered is None:
        remembered = exponent, estimate_mean_pitch(band)
        _memo = (weakref.ref(s), *remembered)
    return FrontEnd(exponent, band, remembered[1])


def _recall(s: Signal) -> tuple[int, PitchEstimate] | None:
    memo = _memo  # read once: another thread may replace it
    if memo is not None and memo[0]() is s:
        return memo[1], memo[2]
    return None


def exponent_and_pitch(s: Signal) -> tuple[int, PitchEstimate]:
    """``front_end``'s exponent and pitch of ``s``, without the band.

    Remembered if ``s`` is the last signal ``front_end`` analysed, with no
    front-end work; otherwise ``front_end`` runs, and its band is dropped.
    """
    remembered = _recall(s)
    if remembered is not None:
        return remembered
    exponent, _, pitch = front_end(s)
    return exponent, pitch
