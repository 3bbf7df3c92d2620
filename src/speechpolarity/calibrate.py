"""Re-runnable calibration of the detectors' sign conventions.

The synthetic generator fixes the positive-polarity convention (dominant
negative excursion at the closure instant).  Calibration synthesizes a
small battery of positive-polarity utterances, reads the raw vote majority
and the raw statistic sign, and reports which signs must map to Positive.
The shipped defaults are asserted against this procedure in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .hilbert_phase import detect_polarity_hp
from .reskew import reskew_statistic
from .synth import SynthSpec, generate_utterance
from .types import Polarity

# Seed of the battery's first utterance; each further one adds 1.
CALIBRATION_SEED = 20240101
CALIBRATION_PITCHES = (90.0, 140.0, 210.0, 280.0)
CALIBRATION_FORMANTS = (
    ((700.0, 80.0), (1220.0, 100.0), (2600.0, 120.0)),
    ((300.0, 60.0), (2200.0, 100.0), (3000.0, 150.0)),
    ((570.0, 70.0), (840.0, 90.0), (2410.0, 130.0)),
)


@dataclass(frozen=True)
class CalibrationResult:
    vote_sign_for_positive: int
    reskew_sign_for_positive: int
    vote_agreement: float
    statistic_agreement: float


def _battery():
    for k, (pitch, formants) in enumerate(product(CALIBRATION_PITCHES, CALIBRATION_FORMANTS)):
        yield SynthSpec(pitch_hz=pitch, duration_s=0.8, sample_rate_hz=16000, formants=formants,
                        polarity=Polarity.POSITIVE, jitter_pct=1.0, seed=CALIBRATION_SEED + k)


def calibrate() -> CalibrationResult:
    """Determine the vote sign and statistic sign that indicate positive polarity.

    The battery of utterances is fixed, so every call gives the same result.
    """
    vote_signs = []
    stat_signs = []
    for spec in _battery():
        s = generate_utterance(spec)
        decision = detect_polarity_hp(s)
        if decision.positive_votes != decision.negative_votes:
            vote_signs.append(1 if decision.positive_votes > decision.negative_votes else -1)
        stat = reskew_statistic(s)
        if stat != 0.0:
            stat_signs.append(1 if stat > 0 else -1)

    vote_sign = 1 if sum(vote_signs) > 0 else -1
    stat_sign = 1 if sum(stat_signs) > 0 else -1
    vote_agree = vote_signs.count(vote_sign) / len(vote_signs) if vote_signs else 0.0
    stat_agree = stat_signs.count(stat_sign) / len(stat_signs) if stat_signs else 0.0
    return CalibrationResult(vote_sign, stat_sign, vote_agree, stat_agree)
