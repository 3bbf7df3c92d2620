"""Polarity detection for speech and electro-glottogram recordings.

Two detectors share one toolbox: the phase-vote method reads the cosine
phase of a glottal-flow approximation just after Hilbert-envelope peaks
anchored on zero-frequency-filtered excitation instants, and the reskew
baseline uses the skewness of the same flow approximation.  A synthetic generator with
known ground truth, calibrated-SNR noise mixing, and a corpus-evaluation
harness round out the package.
"""

from .calibrate import CalibrationResult, calibrate
from .dsp import analytic_signal, cosine_phase, hilbert_envelope, hilbert_transform
from .epochs import estimate_mean_pitch, extract_epochs, zff_filter
from .harness import (CorpusManifest, EvalReport, ManifestEntry, MethodTally, TrialRecord,
                      evaluate_corpus, load_wav, parse_manifest, render_report, save_wav)
from .hilbert_phase import detect_polarity_hp, select_he_peaks
from .reskew import (detect_polarity_reskew, glottal_flow_estimate, levinson, lp_residual,
                     reskew_statistic, skewness)
from .synth import (NoiseSpec, SynthSpec, generate_utterance, generate_utterance_with_instants,
                    mix_noise)
from .types import (InvalidInputError, Polarity, PolarityDecision, Signal,
                    UndefinedStatisticError)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult", "CorpusManifest", "EvalReport", "InvalidInputError", "ManifestEntry",
    "MethodTally", "NoiseSpec", "Polarity", "PolarityDecision", "Signal", "SynthSpec",
    "TrialRecord", "UndefinedStatisticError", "analytic_signal", "calibrate",
    "cosine_phase", "detect_polarity_hp", "detect_polarity_reskew", "estimate_mean_pitch",
    "evaluate_corpus", "extract_epochs", "generate_utterance", "generate_utterance_with_instants",
    "glottal_flow_estimate", "hilbert_envelope", "hilbert_transform", "levinson", "load_wav",
    "lp_residual", "mix_noise", "parse_manifest", "render_report", "reskew_statistic", "save_wav",
    "select_he_peaks", "skewness", "zff_filter",
]
