"""Antisymmetry and power-of-two scale invariance of both detectors on random voiced inputs
with a DC offset, and the output invariants of the analytic-signal stages on arbitrary finite
inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from speechpolarity import (Polarity, Signal, SynthSpec, analytic_signal, cosine_phase,
                            detect_polarity_hp, detect_polarity_reskew, generate_utterance,
                            hilbert_envelope)

DETECTORS = (detect_polarity_hp, detect_polarity_reskew)

voiced = st.builds(
    SynthSpec,
    pitch_hz=st.floats(80.0, 300.0),
    duration_s=st.floats(0.3, 1.2),
    sample_rate_hz=st.sampled_from((8000, 16000, 22050, 44100, 48000)),
    polarity=st.sampled_from((Polarity.POSITIVE, Polarity.NEGATIVE)),
    jitter_pct=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
# DC offset in multiples of the utterance's peak
offset = st.floats(-0.5, 0.5)
property_settings = settings(derandomize=True, deadline=None, database=None)


def offset_utterance(spec: SynthSpec, dc: float) -> Signal:
    s = generate_utterance(spec)
    return Signal(s.samples + dc * np.max(np.abs(s.samples)), s.sample_rate_hz)


@property_settings
@given(spec=voiced, dc=offset)
def test_negation_flips_decision_and_swaps_votes(spec, dc):
    s = offset_utterance(spec, dc)
    for detect in DETECTORS:
        d, dn = detect(s), detect(s.negated())
        assert dn.polarity is d.polarity.flipped()
        assert (dn.positive_votes, dn.negative_votes) == (d.negative_votes, d.positive_votes)
        assert dn.anchors_used == d.anchors_used
        assert (dn.statistic is None) == (d.statistic is None)
        if d.statistic is not None:
            assert dn.statistic == -d.statistic


@property_settings
@given(spec=voiced, dc=offset, k=st.integers(-300, 300))
def test_power_of_two_scaling_changes_nothing(spec, dc, k):
    s = offset_utterance(spec, dc)
    scaled = Signal(np.ldexp(s.samples, k), s.sample_rate_hz)
    for detect in DETECTORS:
        assert detect(scaled) == detect(s)


# Short lengths of every factorization, and long primes: lengths whose one
# factor is large.
finite = arrays(np.float64, st.one_of(st.integers(1, 64), st.sampled_from((331, 509, 1009))),
                elements=st.floats(-1e300, 1e300))


@property_settings
@given(x=finite)
def test_envelope_is_finite_nonnegative_and_even(x):
    env = hilbert_envelope(analytic_signal(x))
    assert np.all(np.isfinite(env)) and np.all(env >= 0.0)
    assert hilbert_envelope(analytic_signal(-x)).tobytes() == env.tobytes()


@property_settings
@given(x=finite)
def test_cosine_phase_is_bounded_and_odd(x):
    phase = cosine_phase(analytic_signal(x))
    assert np.all(phase >= -1.0) and np.all(phase <= 1.0)
    assert cosine_phase(analytic_signal(-x)).tobytes() == (-phase).tobytes()


@property_settings
@given(x=finite)
def test_analytic_pair_starts_with_the_input(x):
    real, imag = analytic_signal(x)
    assert real is x and imag.shape == real.shape
