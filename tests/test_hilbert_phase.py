"""Peak selection, per-peak vote reads, and the vote-based detector."""

import numpy as np
import pytest
from scipy.signal import butter, resample_poly

from speechpolarity import (EnvelopeSeries, EpochList, InvalidInputError, PhaseSeries,
                            Polarity, PolarityDecision, Signal, SynthSpec, analytic_signal,
                            detect_polarity_hp, detect_polarity_reskew, extract_epochs,
                            generate_utterance, generate_utterance_with_instants,
                            hilbert_envelope, hilbert_phase, reskew, select_he_peaks, zff_filter)
from speechpolarity.hilbert_phase import (BAND_HIGH_HZ, BAND_LOW_HZ, MIN_PHASE_MAGNITUDE,
                                          MIN_VOTES, PEAK_SEARCH_MS, PHASE_SPAN_PERIODS,
                                          PROMINENCE_FLOOR, _band_filter, _phase_reads)

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
        peaks = select_he_peaks(env, epochs)
        assert peaks.tolist() == [1000]

    def test_rate_mismatch_rejected(self):
        env = EnvelopeSeries(np.ones(100), FS)
        epochs = EpochList(np.array([10]), 8000)
        with pytest.raises(InvalidInputError):
            select_he_peaks(env, epochs)


def vote_signs(phase: PhaseSeries, peaks, pitch_hz: float = 120.0) -> list:
    """The detector's vote per peak: the sign of the phase read, 0 below MIN_PHASE_MAGNITUDE."""
    means = _phase_reads(phase, np.asarray(peaks), pitch_hz)
    return np.where(np.abs(means) < MIN_PHASE_MAGNITUDE, 0, np.sign(means)).astype(int).tolist()


class TestVoteReads:
    def test_phase_sign_read(self):
        # plateaus wider than the averaging window around each read point
        values = np.zeros(200)
        values[30:91] = -0.9
        values[100:161] = 0.9
        values[170:200] = 0.1  # below the magnitude threshold
        phase = PhaseSeries(values, FS)
        assert vote_signs(phase, [60, 130, 185]) == [-1, 1, 0]

    def test_phase_sign_antisymmetric(self):
        rng = np.random.default_rng(77)
        values = np.clip(rng.standard_normal(400), -1, 1)
        phase = PhaseSeries(values, FS)
        flipped = PhaseSeries(-values, FS)
        peaks = [50, 150, 250, 350]
        assert vote_signs(flipped, peaks) == [-v for v in vote_signs(phase, peaks)]


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

    def test_fewer_than_min_votes_abstain(self, monkeypatch):
        s = utterance(seed=29)
        d = detect_polarity_hp(s)
        total = d.positive_votes + d.negative_votes
        assert d.polarity is Polarity.POSITIVE and total >= MIN_VOTES
        monkeypatch.setattr(hilbert_phase, "MIN_VOTES", total)
        assert detect_polarity_hp(s) == d
        monkeypatch.setattr(hilbert_phase, "MIN_VOTES", total + 1)
        assert detect_polarity_hp(s) == PolarityDecision(
            Polarity.INDETERMINATE, d.positive_votes, d.negative_votes, d.anchors_used)

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


def reference_select_he_peaks(env: EnvelopeSeries, epochs: EpochList) -> np.ndarray:
    """One argmax per epoch over its window, cut off at the envelope's ends."""
    values = env.values
    half = int(round(PEAK_SEARCH_MS * env.sample_rate_hz / 1000.0))
    floor = PROMINENCE_FLOOR * float(values.max())
    picked = set()
    for e in epochs.indices:
        lo = max(0, int(e) - half)
        hi = min(values.size, int(e) + half + 1)
        k = lo + int(np.argmax(values[lo:hi]))
        if values[k] >= floor:
            picked.add(k)
    return np.asarray(sorted(picked), dtype=np.int64)


class TestSelectHePeaksMatchesLoop:
    @staticmethod
    def envelopes(n, rng):
        yield rng.random(n)
        yield rng.integers(0, 4, n).astype(float)  # ties everywhere
        yield np.repeat(rng.integers(0, 3, n // 50 + 1), 50)[:n].astype(float)  # plateaus
        yield np.zeros(n)

    @pytest.mark.parametrize("fs", (8000, 16000, 48000))
    def test_matches_per_epoch_argmax(self, fs):
        rng = np.random.default_rng(fs)
        half = int(round(PEAK_SEARCH_MS * fs / 1000.0))
        n = 20 * half
        near_ends = [0, 1, half - 1, half, half + 1, n - half - 1, n - half, n - half + 1, n - 2,
                     n - 1]
        for values in self.envelopes(n, rng):
            env = EnvelopeSeries(values, fs)
            for indices in (near_ends, np.sort(rng.choice(n, 40, replace=False)), np.arange(n)):
                epochs = EpochList(np.unique(indices), fs)
                got = select_he_peaks(env, epochs)
                assert got.dtype == np.int64
                assert np.array_equal(got, reference_select_he_peaks(env, epochs))

    def test_epochs_beyond_the_envelope_rejected(self):
        # both [n, n + half), where a window would be cut short, and n + half on, where it is empty
        half = int(round(PEAK_SEARCH_MS * FS / 1000.0))
        n = 1000
        env = EnvelopeSeries(np.ones(n), FS)
        for offset in (0, 1, half - 1, half, half + 5):
            with pytest.raises(InvalidInputError):
                select_he_peaks(env, EpochList(np.array([10, n + offset]), FS))
        assert select_he_peaks(env, EpochList(np.array([10, n - 1]), FS)).size > 0


class TestBatchedPhaseReads:
    @staticmethod
    def reference(values, peaks, span):
        return np.array([np.mean(values[p:p + span + 1]) for p in peaks])

    def test_matches_per_peak_mean_bitwise(self):
        rng = np.random.default_rng(91)
        for span in (0, 1, 2, 7, 8, 15, 16, 31, 75, 128, 150):
            pitch = PHASE_SPAN_PERIODS * FS / span if span else 1e9
            assert int(round(PHASE_SPAN_PERIODS * FS / pitch)) == span
            values = np.clip(rng.standard_normal(600), -1.0, 1.0)
            # every peak whose read runs past the end, plus random ones before
            peaks = np.unique(np.concatenate([rng.choice(600, 30), np.arange(600 - span - 2, 600)]))
            peaks = peaks[peaks >= 0]
            got = _phase_reads(PhaseSeries(values, FS), peaks, pitch)
            assert got.tobytes() == self.reference(values, peaks, span).tobytes()

    def test_read_longer_than_series(self):
        values = np.linspace(-1.0, 1.0, 9)
        peaks = np.arange(9)
        got = _phase_reads(PhaseSeries(values, FS), peaks, 100.0)
        assert got.tobytes() == self.reference(values, peaks, 20).tobytes()

    def test_no_peaks(self):
        got = _phase_reads(PhaseSeries(np.zeros(100), FS), np.empty(0, dtype=np.int64), 120.0)
        assert got.shape == (0,)


CACHE_RATES = (1000, 8000, 11025, 16000, 22050, 44100, 48000)


class TestFilterDesignCache:
    """Both detectors design their Butterworth filters once per sample rate."""

    @pytest.mark.parametrize("fs", CACHE_RATES)
    def test_cached_designs_equal_fresh_ones_and_are_read_only(self, fs):
        # at 1 kHz both the band's upper edge and the smoothing cutoff sit at 0.95 Nyquist
        nyq = fs / 2.0
        fresh = (butter(2, [BAND_LOW_HZ / nyq, min(BAND_HIGH_HZ, 0.95 * nyq) / nyq],
                        btype="band"),
                 butter(4, min(reskew.RESIDUAL_SMOOTH_HZ, 0.95 * nyq) / nyq, btype="low"))
        for cached, expected in zip((_band_filter(fs), reskew._smoothing_filter(fs)), fresh):
            for got, want in zip(cached, expected):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                with pytest.raises(ValueError):
                    got[0] = 1.0

    @pytest.mark.parametrize("fs", CACHE_RATES)
    def test_second_call_at_a_rate_designs_nothing(self, fs, monkeypatch):
        calls = {hilbert_phase: 0, reskew: 0}

        def counting(module):
            def design(*args, **kwargs):
                calls[module] += 1
                return butter(*args, **kwargs)
            return design

        for module in calls:
            monkeypatch.setattr(module, "butter", counting(module))
        _band_filter.cache_clear()
        reskew._smoothing_filter.cache_clear()
        x = generate_utterance(SynthSpec(pitch_hz=110.0, sample_rate_hz=48000, seed=95)).samples
        s = Signal(resample_poly(x, fs, 48000), fs)
        assert detect_polarity_hp(s).anchors_used > 0  # the flow stage ran
        detect_polarity_reskew(s)
        assert calls == {hilbert_phase: 1, reskew: 1}
        detect_polarity_hp(s)
        detect_polarity_reskew(s.negated())
        assert calls == {hilbert_phase: 1, reskew: 1}
