"""ZFF filtering, pitch estimation, and epoch extraction on generator ground truth."""

import numpy as np
import pytest

from speechpolarity import (InvalidInputError, Polarity, Signal, SynthSpec, ZffConfig,
                            estimate_mean_pitch, extract_epochs, generate_utterance,
                            zff_filter)

FS = 16000


def utterance(pitch, seed=0, duration=1.0, jitter=1.0):
    return generate_utterance(SynthSpec(pitch_hz=pitch, duration_s=duration,
                                        sample_rate_hz=FS, jitter_pct=jitter, seed=seed))


def dominant_frequency(y: Signal, lo_hz=50.0, hi_hz=400.0) -> float:
    """Autocorrelation peak of the waveform within the given lag band."""
    v = y.samples - y.samples.mean()
    n = v.size
    spec = np.fft.rfft(v, 2 * n)
    acf = np.fft.irfft(spec * np.conj(spec))[:n]
    lo = int(round(y.sample_rate_hz / hi_hz))
    hi = int(round(y.sample_rate_hz / lo_hz))
    lag = lo + int(np.argmax(acf[lo:hi + 1]))
    return y.sample_rate_hz / lag


class TestMeanPitch:
    @pytest.mark.parametrize("pitch,tol", [(100.0, 2.0), (250.0, 5.0)])
    def test_synthetic_trains(self, pitch, tol):
        est = estimate_mean_pitch(utterance(pitch, seed=int(pitch)))
        assert abs(est - pitch) <= tol

    def test_white_noise_falls_back(self):
        rng = np.random.default_rng(0)
        est = estimate_mean_pitch(Signal(rng.standard_normal(FS), FS))
        assert est == 120.0

    def test_short_signal_falls_back(self):
        est = estimate_mean_pitch(Signal(np.ones(100), FS))
        assert est == 120.0

    def test_custom_fallback(self):
        rng = np.random.default_rng(1)
        cfg = ZffConfig(mean_pitch_fallback_hz=95.0)
        assert estimate_mean_pitch(Signal(rng.standard_normal(FS), FS), cfg) == 95.0


class TestZffFilter:
    def test_dominant_frequency_tracks_pitch(self):
        s = utterance(100.0, seed=5)
        y = zff_filter(s)
        assert abs(dominant_frequency(y) - 100.0) <= 3.0

    def test_linearity_negation(self):
        s = utterance(120.0, seed=9)
        y_pos = zff_filter(s).samples
        y_neg = zff_filter(s.negated()).samples
        scale = np.max(np.abs(y_pos))
        assert np.max(np.abs(y_pos + y_neg)) <= 1e-9 * scale

    def test_all_zero_input(self):
        y = zff_filter(Signal(np.zeros(FS), FS))
        assert not y.samples.any()

    def test_too_short_raises(self):
        with pytest.raises(InvalidInputError):
            zff_filter(Signal(np.ones(64), FS), ZffConfig(trend_window_ms=25.0))

    def test_supplied_pitch_matches_own_estimate(self):
        s = utterance(180.0, seed=11)
        cfg = ZffConfig()
        own = zff_filter(s, cfg).samples
        handed = zff_filter(s, cfg, mean_pitch_hz=estimate_mean_pitch(s, cfg)).samples
        assert np.array_equal(handed, own)

    def test_explicit_window_overrides_supplied_pitch(self):
        s = utterance(120.0, seed=12)
        fixed = ZffConfig(trend_window_ms=8.0)
        assert np.array_equal(zff_filter(s, fixed, mean_pitch_hz=300.0).samples,
                              zff_filter(s, fixed).samples)
        assert not np.array_equal(zff_filter(s, mean_pitch_hz=300.0).samples,
                                  zff_filter(s).samples)

    def test_explicit_window_validation(self):
        with pytest.raises(InvalidInputError):
            ZffConfig(trend_window_ms=0.2)
        with pytest.raises(InvalidInputError):
            ZffConfig(trend_passes=9)
        with pytest.raises(InvalidInputError):
            ZffConfig(trend_passes=2.5)


class TestExtractEpochs:
    def test_epoch_count_on_pitch_train(self):
        # about two crossings per 10 ms pitch period over one second
        s = utterance(100.0, seed=2)
        epochs = extract_epochs(zff_filter(s))
        assert 180 <= len(epochs) <= 220

    def test_negation_invariance(self):
        s = utterance(150.0, seed=4)
        e_pos = extract_epochs(zff_filter(s)).indices
        e_neg = extract_epochs(zff_filter(s.negated())).indices
        assert np.array_equal(e_pos, e_neg)

    def test_scale_invariance(self):
        s = utterance(150.0, seed=4)
        e_base = extract_epochs(zff_filter(s)).indices
        e_scaled = extract_epochs(zff_filter(s.scaled(10.0))).indices
        assert np.array_equal(e_base, e_scaled)

    def test_silence_gives_empty(self):
        y = zff_filter(Signal(np.zeros(FS), FS))
        assert len(extract_epochs(y)) == 0

    def test_spacing_and_range(self):
        s = utterance(220.0, seed=6)
        y = zff_filter(s)
        epochs = extract_epochs(y)
        idx = epochs.indices
        assert np.all(np.diff(idx) >= int(FS / 1000))
        assert idx[0] >= 16 and idx[-1] < len(y) - 16

    @pytest.mark.parametrize("pitch", [80.0, 100.0, 150.0, 220.0, 300.0])
    def test_epoch_density_band(self, pitch):
        s = utterance(pitch, seed=int(pitch) + 1)
        epochs = extract_epochs(zff_filter(s))
        per_second = len(epochs) / s.duration_s
        assert 1.6 * pitch <= per_second <= 2.4 * pitch
