"""Shared domain types: signals, polarity decisions, and the package's errors."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

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
    def of_sign(cls, value) -> "Polarity":
        """Positive above zero, negative below it, indeterminate at zero or NaN."""
        return cls.POSITIVE if value > 0 else cls.NEGATIVE if value < 0 else cls.INDETERMINATE

    @classmethod
    def parse(cls, text: str) -> "Polarity":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise InvalidInputError(f"unknown polarity {text!r}") from None


def checked_rate(value) -> int:
    """``value``, a whole number of Hz of at least 1 (an int or an integral float), as an int."""
    if (isinstance(value, Real) and not isinstance(value, bool) and 1 <= value < np.inf
            and value % 1 == 0):
        return int(value)
    raise InvalidInputError(f"sample rate must be a whole number of Hz of at least 1, got {value!r}")


def checked_seed(value) -> int:
    """``value``, a non-negative integer that is not a bool, as an int."""
    if isinstance(value, Integral) and not isinstance(value, bool) and value >= 0:
        return int(value)
    raise InvalidInputError(f"seed must be a non-negative integer, got {value!r}")


def checked_pitch(value) -> float:
    """``value``, a positive and finite real number of Hz that is not a bool, as a float."""
    if isinstance(value, Real) and not isinstance(value, bool) and 0 < value < np.inf:
        return float(value)
    raise InvalidInputError(f"mean pitch must be positive and finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class Signal:
    """A uniformly sampled real-valued waveform.

    Samples must be real (complex ones are rejected, not cut to their real
    part), finite and non-empty; the rate is ``checked_rate``'s int.  ``samples``
    is a read-only view, so writing through it raises ``ValueError``; writing to
    the caller's own array after construction is not supported.  Signals
    compare and hash by identity: two with equal samples are distinct.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if np.iscomplexobj(self.samples):
            raise InvalidInputError("samples must be real, got complex values")
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidInputError(f"samples must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise InvalidInputError("signal must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("signal contains non-finite samples")
        arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", checked_rate(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def negated(self) -> "Signal":
        return Signal(-self.samples, self.sample_rate_hz)

    def __reduce__(self):  # copies and pickles go through the checks, so stay read-only
        return Signal, (self.samples, self.sample_rate_hz)


@dataclass(frozen=True)
class PolarityDecision:
    """Outcome of a polarity detector with its vote or statistic evidence.

    The vote counters are filled by the phase-vote detector; the skewness
    baseline reports its scalar statistic instead and leaves the counters
    at zero.  ``reason`` says why a detector abstained before gathering
    evidence: "unvoiced" when the input has too few voiced frames.
    """

    polarity: Polarity
    positive_votes: int = 0
    negative_votes: int = 0
    anchors_used: int = 0
    statistic: float | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.positive_votes < 0 or self.negative_votes < 0 or self.anchors_used < 0:
            raise InvalidInputError("vote counts must be non-negative")
        if self.positive_votes + self.negative_votes > self.anchors_used:
            raise InvalidInputError("vote counts cannot exceed the number of anchors")

    def evidence(self) -> str:
        if self.reason is not None:
            return self.reason
        if self.statistic is not None:
            return f"statistic={self.statistic:+.6g}"
        return (f"votes +{self.positive_votes}/-{self.negative_votes}"
                f" anchors={self.anchors_used}")
