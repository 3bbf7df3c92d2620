"""Shared domain types: signals, polarity decisions, and the package's errors."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an input signal or parameter violates a precondition."""


class UndefinedStatisticError(ValueError):
    """Raised when a statistic is undefined for the given data (constant or too short)."""


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    INDETERMINATE = "indeterminate"

    def flipped(self) -> "Polarity":
        if self is Polarity.POSITIVE:
            return Polarity.NEGATIVE
        if self is Polarity.NEGATIVE:
            return Polarity.POSITIVE
        return Polarity.INDETERMINATE

    @classmethod
    def parse(cls, text: str) -> "Polarity":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise InvalidInputError(f"unknown polarity {text!r}") from None


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled real-valued waveform.

    Samples must be finite and non-empty; mutating the array after
    construction is not supported.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidInputError(f"samples must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise InvalidInputError("signal must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("signal contains non-finite samples")
        if int(self.sample_rate_hz) < 1:
            raise InvalidInputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def negated(self) -> "Signal":
        return Signal(-self.samples, self.sample_rate_hz)


def detector_input(s: Signal) -> Signal:
    """Check a signal for either detector and rescale it by a power of two.

    Rejects a signal too short or too coarsely sampled.  The returned signal
    has its peak in [0.5, 1): a power-of-two scale leaves every normal
    sample's mantissa as it is, and it keeps the LP lags of very loud or
    very quiet input inside the floating-point range.
    """
    if s.duration_s < 0.1:
        raise InvalidInputError("polarity detection needs at least 100 ms of audio")
    if s.sample_rate_hz < 1000:
        raise InvalidInputError("polarity detection needs a sample rate of at least 1 kHz")
    _, exponent = np.frexp(np.max(np.abs(s.samples)))
    if exponent == 0:
        return s
    return Signal(np.ldexp(s.samples, -exponent), s.sample_rate_hz)


@dataclass(frozen=True)
class PolarityDecision:
    """Outcome of a polarity detector with its vote or statistic evidence.

    The vote counters are filled by the phase-vote detector; the skewness
    baseline reports its scalar statistic instead and leaves the counters
    at zero.
    """

    polarity: Polarity
    positive_votes: int = 0
    negative_votes: int = 0
    anchors_used: int = 0
    statistic: float | None = None

    def __post_init__(self):
        if self.positive_votes < 0 or self.negative_votes < 0 or self.anchors_used < 0:
            raise InvalidInputError("vote counts must be non-negative")
        if self.positive_votes + self.negative_votes > self.anchors_used and self.statistic is None:
            raise InvalidInputError("vote counts cannot exceed the number of anchors")

    def evidence(self) -> str:
        if self.statistic is not None:
            return f"statistic={self.statistic:+.6g}"
        return (f"votes +{self.positive_votes}/-{self.negative_votes}"
                f" anchors={self.anchors_used}")
