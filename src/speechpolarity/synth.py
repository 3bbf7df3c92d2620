"""Synthetic utterances of known polarity, plus calibrated-SNR noise mixing.

The generator builds a differentiated Rosenberg glottal pulse train (each
cycle ends in a sharp negative excursion at the closure instant, which is
the positive-polarity convention) and runs it through a cascade of
second-order formant resonators.  The exact closure sample indices are
kept, so the output doubles as ground truth for epoch and peak tests.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy.signal import lfilter

from .types import InvalidInputError, Polarity, Signal, checked_rate, checked_seed

DEFAULT_FORMANTS = ((700.0, 80.0), (1220.0, 100.0), (2600.0, 120.0))

# Rosenberg pulse timing as fractions of the cycle.
OPEN_FRACTION = 0.4
CLOSE_FRACTION = 0.16

PEAK_LEVEL = 0.5
MAX_DURATION_S = 3600.0  # one hour; a longer SynthSpec overflows or exhausts memory


@dataclass(frozen=True)
class SynthSpec:
    pitch_hz: float
    duration_s: float = 1.0
    sample_rate_hz: int = 16000
    formants: tuple = DEFAULT_FORMANTS
    polarity: Polarity = Polarity.POSITIVE
    jitter_pct: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sample_rate_hz", checked_rate(self.sample_rate_hz))
        if not (50.0 <= self.pitch_hz <= 400.0):
            raise InvalidInputError(f"pitch_hz must lie in [50, 400], got {self.pitch_hz}")
        if self.pitch_hz >= self.sample_rate_hz / 8:
            raise InvalidInputError("pitch_hz must be below sample_rate_hz / 8")
        if not 0.5 < self.duration_s * self.sample_rate_hz <= MAX_DURATION_S * self.sample_rate_hz:
            raise InvalidInputError(f"duration_s must span a sample, up to 1 h, got {self.duration_s}")
        if not (0.0 <= self.jitter_pct <= 5.0):
            raise InvalidInputError(f"jitter_pct must lie in [0, 5], got {self.jitter_pct}")
        if self.polarity not in (Polarity.POSITIVE, Polarity.NEGATIVE):
            raise InvalidInputError("polarity must be positive or negative")
        object.__setattr__(self, "seed", checked_seed(self.seed))
        for centre, bw in self.formants:
            if not (0 < centre < self.sample_rate_hz / 2):
                raise InvalidInputError(f"formant centre {centre} outside (0, fs/2)")
            if not 0 < bw < np.inf:
                raise InvalidInputError(f"formant bandwidth must be positive and finite, got {bw}")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str  # white | pink | file
    snr_db: float
    seed: int = 0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("white", "pink", "file"):
            raise InvalidInputError(f"noise kind must be white, pink, or file, got {self.kind!r}")
        if not (-10.0 <= self.snr_db <= 60.0):
            raise InvalidInputError(f"snr_db must lie in [-10, 60], got {self.snr_db}")
        if self.kind == "file" and not self.path:
            raise InvalidInputError("file noise needs a path")
        object.__setattr__(self, "seed", checked_seed(self.seed))


def _rosenberg_cycle(period_samples: float) -> tuple[np.ndarray, int]:
    """One cycle of Rosenberg flow; returns (flow, index of steepest closure slope)."""
    length = int(round(period_samples))
    t_open = OPEN_FRACTION * period_samples
    t_close = CLOSE_FRACTION * period_samples
    idx = np.arange(length)
    flow = np.zeros(length)
    opening = idx < t_open
    closing = (idx >= t_open) & (idx < t_open + t_close)
    flow[opening] = 0.5 * (1.0 - np.cos(np.pi * idx[opening] / t_open))
    flow[closing] = np.cos(np.pi * (idx[closing] - t_open) / (2.0 * t_close))
    closure = min(int(round(t_open + t_close)) - 1, length - 1)
    return flow, max(closure, 0)


def _positive_waveform(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(spec.seed)
    fs = spec.sample_rate_hz
    n = int(round(spec.duration_s * fs))
    flow = np.zeros(n)
    instants = []
    t = 0.0
    while True:
        period = (fs / spec.pitch_hz) * (1.0 + (spec.jitter_pct / 100.0) * rng.uniform(-1.0, 1.0))
        start = int(round(t))
        if start >= n:
            break
        cycle, closure = _rosenberg_cycle(period)
        stop = min(start + cycle.size, n)
        flow[start:stop] += cycle[:stop - start]
        if start + closure < n:
            instants.append(start + closure)
        t += period

    excitation = np.diff(flow, prepend=0.0)  # sharp negative spike at each closure
    out = excitation
    for centre, bw in spec.formants:
        r = np.exp(-np.pi * bw / fs)
        theta = 2.0 * np.pi * centre / fs
        out = lfilter([1.0], [1.0, -2.0 * r * np.cos(theta), r * r], out)
    peak = np.max(np.abs(out))
    if peak > 0:
        out = out * (PEAK_LEVEL / peak)
    return out, np.asarray(instants, dtype=np.int64)


def generate_utterance_with_instants(spec: SynthSpec) -> tuple[Signal, np.ndarray]:
    """Synthesize an utterance and return it with its exact closure sample indices.

    The negative-polarity output is the elementwise negation of the
    positive-polarity construction for the same spec.
    """
    wave, instants = _positive_waveform(spec)
    if spec.polarity is Polarity.NEGATIVE:
        wave = -wave
    return Signal(wave, spec.sample_rate_hz), instants


def generate_utterance(spec: SynthSpec) -> Signal:
    return generate_utterance_with_instants(spec)[0]


def _pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.arange(spec.size, dtype=np.float64)
    freqs[0] = 1.0
    spec = spec / np.sqrt(freqs)
    spec[0] = 0.0
    return np.fft.irfft(spec, n)


def mix_noise(s: Signal, spec: NoiseSpec, *, noise: Signal | None = None) -> Signal:
    """Add noise scaled so the full-signal energy ratio matches ``spec.snr_db``.

    White and pink noise are drawn from ``spec.seed``.  A ``file`` source is
    the ``noise`` signal, which the caller reads from ``spec.path``
    (``evaluate_corpus`` reads it once per level); it must be given and have
    the signal's rate, and it is repeated or cut to the signal's length.
    """
    energy = float(np.dot(s.samples, s.samples))
    if energy <= 0.0:
        raise InvalidInputError("cannot set an SNR against a zero-energy signal")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "white":
        noise = rng.standard_normal(s.samples.size)
    elif spec.kind == "pink":
        noise = _pink_noise(s.samples.size, rng)
    else:
        if noise is None:
            raise InvalidInputError(f"{spec.path}: file noise needs the file's samples as `noise`")
        if noise.sample_rate_hz != s.sample_rate_hz:
            raise InvalidInputError(f"{spec.path}: noise sampled at {noise.sample_rate_hz} Hz, "
                                    f"the signal at {s.sample_rate_hz} Hz")
        noise = np.resize(noise.samples, s.samples.size)
    noise_energy = float(np.dot(noise, noise))
    if noise_energy <= 0.0:
        raise InvalidInputError("noise source has zero energy")
    lam = np.sqrt(energy / (noise_energy * 10.0 ** (spec.snr_db / 10.0)))
    return Signal(s.samples + lam * noise, s.sample_rate_hz)
