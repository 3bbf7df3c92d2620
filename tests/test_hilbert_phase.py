"""Peak selection, per-peak vote reads, and the vote-based detector."""

import numpy as np
import pytest

from speechpolarity import (EnvelopeSeries, EpochList, HpConfig, InvalidInputError,
                            PhaseSeries, Polarity, Signal, SynthSpec, ZffConfig,
                            analytic_signal, detect_polarity_hp, extract_epochs,
                            generate_utterance, generate_utterance_with_instants,
                            hilbert_envelope, phase_sign_at_peak, select_he_peaks,
                            zff_filter)

FS = 16000


def utterance(pitch=120.0, seed=0, jitter=1.0, duration=1.0, polarity=Polarity.POSITIVE):
    return generate_utterance(SynthSpec(pitch_hz=pitch, duration_s=duration,
                                        sample_rate_hz=FS, jitter_pct=jitter,
                                        polarity=polarity, seed=seed))


class TestSelectHePeaks:
    def test_peaks_near_true_instants(self):
        spec = SynthSpec(pitch_hz=100.0, duration_s=1.0, sample_rate_hz=FS,
                         jitter_pct=1.0, seed=21)
        s, instants = generate_utterance_with_instants(spec)
        env = hilbert_envelope(analytic_signal(s))
        epochs = extract_epochs(zff_filter(s))
        peaks = select_he_peaks(env, epochs)
        assert peaks.size > 50
        tol = int(0.001 * FS)
        for p in peaks:
            assert np.min(np.abs(instants - p)) <= tol

    def test_negation_invariance(self):
        s = utterance(seed=22)
        env_p = hilbert_envelope(analytic_signal(s))
        env_n = hilbert_envelope(analytic_signal(s.negated()))
        e_p = extract_epochs(zff_filter(s))
        e_n = extract_epochs(zff_filter(s.negated()))
        assert np.array_equal(select_he_peaks(env_p, e_p), select_he_peaks(env_n, e_n))

    def test_empty_epochs_give_empty(self):
        env = EnvelopeSeries(np.ones(1000), FS)
        epochs = EpochList(np.empty(0, dtype=np.int64), FS)
        assert select_he_peaks(env, epochs).size == 0

    def test_prominence_floor_suppresses_quiet_peaks(self):
        values = np.full(4000, 0.01)
        values[1000] = 1.0  # single loud peak; the rest sit below the floor
        env = EnvelopeSeries(values, FS)
        epochs = EpochList(np.array([1000, 3000]), FS)
        peaks = select_he_peaks(env, epochs, HpConfig(peak_search_ms=5.0))
        assert peaks.tolist() == [1000]

    def test_rate_mismatch_rejected(self):
        env = EnvelopeSeries(np.ones(100), FS)
        epochs = EpochList(np.array([10]), 8000)
        with pytest.raises(InvalidInputError):
            select_he_peaks(env, epochs)


class TestVoteReads:
    def test_phase_sign_read(self):
        # plateaus wider than the averaging window around each read point
        values = np.zeros(200)
        values[30:91] = -0.9
        values[100:161] = 0.9
        values[170:200] = 0.1  # below the default magnitude threshold
        phase = PhaseSeries(values, FS)
        assert phase_sign_at_peak(phase, 60) == -1
        assert phase_sign_at_peak(phase, 130) == 1
        assert phase_sign_at_peak(phase, 185) == 0

    def test_phase_sign_antisymmetric(self):
        rng = np.random.default_rng(77)
        values = np.clip(rng.standard_normal(400), -1, 1)
        phase = PhaseSeries(values, FS)
        flipped = PhaseSeries(-values, FS)
        for idx in (50, 150, 250, 350):
            assert phase_sign_at_peak(flipped, idx) == -phase_sign_at_peak(phase, idx)

    def test_out_of_range_peak(self):
        phase = PhaseSeries(np.zeros(16), FS)
        with pytest.raises(InvalidInputError):
            phase_sign_at_peak(phase, 99)


class TestDetector:
    def test_positive_synthetic(self):
        d = detect_polarity_hp(utterance(seed=24))
        assert d.polarity is Polarity.POSITIVE

    def test_negative_synthetic(self):
        d = detect_polarity_hp(utterance(seed=24, polarity=Polarity.NEGATIVE))
        assert d.polarity is Polarity.NEGATIVE

    def test_negation_flips_with_swapped_votes(self):
        for seed in (25, 26, 27):
            s = utterance(pitch=100.0 + 30 * (seed - 25), seed=seed)
            d_pos = detect_polarity_hp(s)
            d_neg = detect_polarity_hp(s.negated())
            assert d_pos.polarity is d_neg.polarity.flipped()
            assert d_pos.positive_votes == d_neg.negative_votes
            assert d_pos.negative_votes == d_neg.positive_votes
            assert d_pos.anchors_used == d_neg.anchors_used

    def test_scale_invariance(self):
        s = utterance(seed=28)
        base = detect_polarity_hp(s)
        for alpha in (1e-3, 0.5, 10.0):
            d = detect_polarity_hp(s.scaled(alpha))
            assert d.polarity is base.polarity
            assert d.positive_votes == base.positive_votes
            assert d.negative_votes == base.negative_votes

    def test_extreme_scales_never_confidently_wrong(self):
        # unscaled, the LP lags of these overflow or underflow
        s = utterance(seed=12)
        for alpha in (1e-300, 1e-200, 1e-170, 1e-150, 1e150, 1e200, 1e300):
            d = detect_polarity_hp(s.scaled(alpha))
            assert d.polarity in (Polarity.POSITIVE, Polarity.INDETERMINATE)

    def test_vote_accounting(self):
        d = detect_polarity_hp(utterance(seed=29))
        assert d.positive_votes + d.negative_votes <= d.anchors_used
        assert d.anchors_used > 0

    def test_silence_is_indeterminate(self):
        d = detect_polarity_hp(Signal(np.zeros(FS), FS))
        assert d.polarity is Polarity.INDETERMINATE
        assert d.anchors_used == 0

    def test_short_signal_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_polarity_hp(Signal(np.ones(800), FS))

    def test_low_rate_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_polarity_hp(Signal(np.ones(200), 500))

    def test_determinism(self):
        s = utterance(seed=31)
        a = detect_polarity_hp(s)
        b = detect_polarity_hp(s)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            HpConfig(peak_search_ms=100.0)
        with pytest.raises(InvalidInputError):
            HpConfig(min_votes=2.5)


# The acceptance corpus's formant sets for the two cells where F1 sits on a
# low harmonic, and its seeds for those cells (40000 + index in A5's order).
F1_ON_2F0 = (265.0, ((530.0, 70.0), (1840.0, 100.0), (2480.0, 140.0)), 40328)
F1_ON_F0 = (300.0, ((300.0, 60.0), (2200.0, 100.0), (3000.0, 150.0)), 40376)


def cell_utterances(pitch, formants, seed, rate=FS):
    """Jitter 0-3% x both polarities, in the acceptance corpus's order."""
    out = []
    for jitter in (0.0, 1.0, 2.0, 3.0):
        for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE):
            out.append((polarity, generate_utterance(SynthSpec(
                pitch_hz=pitch, duration_s=1.0, sample_rate_hz=rate, formants=formants,
                polarity=polarity, jitter_pct=jitter, seed=seed))))
            seed += 1
    return out


def f1_on_f0(pitch):
    """The corpus's F1 = 300 Hz formant set with F1 moved onto the pitch."""
    return ((pitch, 60.0), (2200.0, 100.0), (3000.0, 150.0))


@pytest.fixture(scope="module")
def low_harmonic_cells():
    return cell_utterances(*F1_ON_2F0) + cell_utterances(*F1_ON_F0)


class TestFormantOnLowHarmonic:
    """F1 on f0 or 2 f0: the LP fit notches a harmonic out of the flow."""

    def test_pinned_cells_all_correct(self, low_harmonic_cells):
        decided = [detect_polarity_hp(s).polarity for _, s in low_harmonic_cells]
        assert decided == [truth for truth, _ in low_harmonic_cells]

    def test_f1_on_f0_off_grid_all_correct(self):
        for truth, s in cell_utterances(250.0, f1_on_f0(250.0), 7000):
            assert detect_polarity_hp(s).polarity is truth

    @pytest.mark.parametrize("rate", [8000, 48000])
    def test_f1_on_f0_other_rates_never_confidently_wrong(self, rate):
        for truth, s in cell_utterances(300.0, f1_on_f0(300.0), 7100, rate=rate):
            assert detect_polarity_hp(s).polarity is not truth.flipped()

    def test_negation_and_scale_on_pinned_cells(self, low_harmonic_cells):
        for _, s in low_harmonic_cells:
            base = detect_polarity_hp(s)
            neg = detect_polarity_hp(s.negated())
            assert neg.polarity is base.polarity.flipped()
            assert (neg.positive_votes, neg.negative_votes) == \
                (base.negative_votes, base.positive_votes)
            for alpha in (1e-3, 10.0):
                d = detect_polarity_hp(s.scaled(alpha))
                assert d.polarity is base.polarity
                assert (d.positive_votes, d.negative_votes) == \
                    (base.positive_votes, base.negative_votes)
