"""The front end both detectors share: the checked input, ``hp``'s band and its mean pitch.

``front_end`` runs once per detector call.  It checks the input and
rescales it by a power of two (``detector_input``), resamples it once,
polyphase, to ``HP_ANALYSIS_RATE_HZ`` (16 kHz) if it is sampled faster,
keeps the longest prefix whose length is 11-smooth (``prev_fast_len``: no
prime factor above 11), and band-passes that prefix to 60-1600 Hz.  The
mean pitch is estimated once, on the band, and counts the voiced frames.

With fewer than ``PITCH_MIN_VOICED_FRAMES`` voiced 40 ms frames, which
includes every input shorter than 120 ms, the input has no pitch to speak
of: both detectors return ``UNVOICED`` at once, and no ZFF, Hilbert
transform or LP runs.  Otherwise ``hp`` carries on from the band, and
``reskew`` from the rescaled input at its own rate and length, with the
band's pitch.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from scipy.fft import prev_fast_len
from scipy.signal import resample_poly

from .dsp import zero_phase_butterworth
from .epochs import PitchEstimate, estimate_mean_pitch
from .types import Polarity, PolarityDecision, Signal, detector_input

# Highest rate the band runs at; faster input is resampled to it once.
HP_ANALYSIS_RATE_HZ = 16000

# Pass band; the upper edge is capped at 0.95 Nyquist.
BAND_LOW_HZ = 60.0
BAND_HIGH_HZ = 1600.0

# Either detector's decision on input with too few voiced frames.
UNVOICED = PolarityDecision(Polarity.INDETERMINATE, reason="unvoiced")


class FrontEnd(NamedTuple):
    """``front_end``'s result; each detector unpacks it and drops the part it does not use."""

    signal: Signal  # the input rescaled by a power of two, at its own rate and length
    band: Signal  # the 60-1600 Hz band of its fast-length prefix, at no more than 16 kHz
    pitch_hz: PitchEstimate  # the band's mean pitch and voiced-frame count


def front_end(s: Signal) -> FrontEnd:
    """Check and rescale ``s``, band-pass it at no more than 16 kHz, and estimate its pitch.

    Raises ``InvalidInputError`` for input shorter than 100 ms or sampled
    below 1 kHz.  The resampled copy is freed once the band exists.
    """
    s = detector_input(s)
    x, fs = s.samples, s.sample_rate_hz
    if fs > HP_ANALYSIS_RATE_HZ:
        g = gcd(HP_ANALYSIS_RATE_HZ, fs)
        x, fs = resample_poly(x, HP_ANALYSIS_RATE_HZ // g, fs // g), HP_ANALYSIS_RATE_HZ
    x = x[:prev_fast_len(x.size)]  # both of hp's Hilbert transforms at a fast length
    # detector_input requires fs >= 1 kHz, so the upper band edge is at least 475 Hz
    band = Signal(zero_phase_butterworth(x, 2, fs, BAND_HIGH_HZ, BAND_LOW_HZ), fs)
    del x
    return FrontEnd(s, band, estimate_mean_pitch(band))
