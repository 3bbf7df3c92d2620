"""Peak selection, per-peak vote reads, and the vote-based detector."""

import numpy as np
import pytest
from scipy.fft import next_fast_len, prev_fast_len
from scipy.signal import butter, lfilter_zi, resample_poly

from speechpolarity import (InvalidInputError, Polarity, PolarityDecision, Signal, SynthSpec,
                            analytic_signal, detect_polarity_hp,
                            detect_polarity_reskew, dsp, estimate_mean_pitch,
                            extract_epochs, generate_utterance, generate_utterance_with_instants,
                            glottal_flow_estimate, hilbert_envelope, hilbert_phase, reskew,
                            select_he_peaks, zff_filter)
from speechpolarity import epochs as zff_stage
from speechpolarity.dsp import butterworth, hilbert_transform
from speechpolarity.hilbert_phase import (BAND_HIGH_HZ, BAND_LOW_HZ, HP_ANALYSIS_RATE_HZ,
                                          MIN_PHASE_MAGNITUDE, MIN_VOTES, PEAK_SEARCH_MS,
                                          PHASE_SPAN_PERIODS, PROMINENCE_FLOOR, _phase_reads)

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
        env = hilbert_envelope(analytic_signal(s.samples))
        epochs = extract_epochs(zff_filter(s, estimate_mean_pitch(s)))
        peaks = select_he_peaks(env, epochs, FS)
        assert peaks.size > 50
        tol = int(0.001 * FS)
        for p in peaks:
            assert np.min(np.abs(instants - p)) <= tol

    def test_negation_invariance(self):
        s = utterance(seed=22)
        env_p = hilbert_envelope(analytic_signal(s.samples))
        env_n = hilbert_envelope(analytic_signal(-s.samples))
        e_p = extract_epochs(zff_filter(s, estimate_mean_pitch(s)))
        e_n = extract_epochs(zff_filter(s.negated(), estimate_mean_pitch(s.negated())))
        assert np.array_equal(select_he_peaks(env_p, e_p, FS), select_he_peaks(env_n, e_n, FS))

    def test_empty_epochs_give_empty(self):
        assert select_he_peaks(np.ones(1000), np.empty(0, dtype=np.int64), FS).size == 0

    def test_prominence_floor_suppresses_quiet_peaks(self):
        values = np.full(4000, 0.01)
        values[1000] = 1.0  # single loud peak; the rest sit below the floor
        peaks = select_he_peaks(values, np.array([1000, 3000]), FS)
        assert peaks.tolist() == [1000]


def vote_signs(phase: np.ndarray, peaks, pitch_hz: float = 120.0) -> list:
    """The detector's vote per peak: the sign of the phase read, 0 below MIN_PHASE_MAGNITUDE."""
    means = _phase_reads(phase, FS, np.asarray(peaks), pitch_hz)
    return np.where(np.abs(means) < MIN_PHASE_MAGNITUDE, 0, np.sign(means)).astype(int).tolist()


class TestVoteReads:
    def test_phase_sign_read(self):
        # plateaus wider than the averaging window around each read point
        values = np.zeros(200)
        values[30:91] = -0.9
        values[100:161] = 0.9
        values[170:200] = 0.1  # below the magnitude threshold
        assert vote_signs(values, [60, 130, 185]) == [-1, 1, 0]

    def test_phase_sign_antisymmetric(self):
        rng = np.random.default_rng(77)
        values = np.clip(rng.standard_normal(400), -1, 1)
        peaks = [50, 150, 250, 350]
        assert vote_signs(-values, peaks) == [-v for v in vote_signs(values, peaks)]


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
            d = detect_polarity_hp(Signal(alpha * s.samples, FS))
            assert d.polarity is base.polarity
            assert d.positive_votes == base.positive_votes
            assert d.negative_votes == base.negative_votes

    def test_extreme_scales_never_confidently_wrong(self):
        # unscaled, the LP lags of these overflow or underflow
        s = utterance(seed=12)
        for alpha in (1e-300, 1e-200, 1e-170, 1e-150, 1e150, 1e200, 1e300):
            d = detect_polarity_hp(Signal(alpha * s.samples, FS))
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
                d = detect_polarity_hp(Signal(alpha * s.samples, FS))
                assert d.polarity is base.polarity
                assert (d.positive_votes, d.negative_votes) == \
                    (base.positive_votes, base.negative_votes)


# The acceptance corpus's cells where hp, analysed at the input rate, went wrong at 48 kHz:
# (pitch, formant set, seed of the cell's first utterance).
FAST_RATE_CELLS = (
    (200.0, ((570.0, 70.0), (840.0, 90.0), (2410.0, 130.0)), 40264),
    (300.0, ((700.0, 80.0), (1220.0, 100.0), (2600.0, 120.0)), 40360),
    (200.0, ((700.0, 80.0), (1220.0, 100.0), (2600.0, 120.0)), 40240),
)


class TestAnalysisRate:
    """hp analyses at no more than HP_ANALYSIS_RATE_HZ; slower input takes the identity path."""

    @pytest.mark.parametrize("rate", [32000, 44100, 48000])
    def test_fast_rate_cells_all_correct(self, rate):
        for pitch, formants, seed in FAST_RATE_CELLS:
            for truth, s in cell_utterances(pitch, formants, seed, rate=rate)[::2]:
                assert truth is Polarity.POSITIVE
                assert detect_polarity_hp(s).polarity is truth

    @pytest.mark.parametrize("rate", [8000, 11025, HP_ANALYSIS_RATE_HZ])
    def test_no_resampling_at_or_below_the_analysis_rate(self, rate, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("resample_poly called")

        monkeypatch.setattr(hilbert_phase, "resample_poly", refuse)
        s = generate_utterance(SynthSpec(pitch_hz=120.0, sample_rate_hz=rate, seed=96))
        assert detect_polarity_hp(s).polarity is Polarity.POSITIVE


class TestFastLengthPrefix:
    """hp analyses the longest prefix of 11-smooth length at its analysis rate."""

    @pytest.mark.parametrize("rate,n", [(8000, 8009), (16000, 16001), (22050, 22051),
                                        (44100, 44101), (48000, 48011)])
    def test_hilbert_transforms_only_fast_lengths(self, rate, n, monkeypatch):
        lengths = []

        def recording(x):
            lengths.append(x.size)
            return hilbert_transform(x)

        monkeypatch.setattr(dsp, "hilbert_transform", recording)
        s = generate_utterance(SynthSpec(pitch_hz=120.0, duration_s=1.1, sample_rate_hz=rate,
                                         seed=97))
        detect_polarity_hp(Signal(s.samples[:n], rate))
        assert len(lengths) == 2
        assert all(next_fast_len(m) == m for m in lengths), lengths

    # (rate, pitch, seed, length): inputs whose vote counts, analysed whole,
    # differ from those of their fast-length prefix.
    @pytest.mark.parametrize("rate,pitch,seed,n", [(8000, 104.0, 2, 7870),
                                                   (16000, 153.0, 9, 15074),
                                                   (16000, 258.0, 24, 15012)])
    def test_trim_is_the_only_change(self, rate, pitch, seed, n):
        x = generate_utterance(SynthSpec(pitch_hz=pitch, duration_s=1.0, sample_rate_hz=rate,
                                         seed=seed)).samples[:n]
        assert detect_polarity_hp(Signal(x, rate)) == \
            detect_polarity_hp(Signal(x[:prev_fast_len(n)], rate))


def reference_select_he_peaks(values: np.ndarray, epochs, fs: int) -> np.ndarray:
    """One argmax per epoch over its window, cut off at the envelope's ends."""
    half = int(round(PEAK_SEARCH_MS * fs / 1000.0))
    floor = PROMINENCE_FLOOR * float(values.max())
    picked = set()
    for e in epochs:
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
        shuffled = np.random.default_rng(fs + 1).permutation(near_ends * 2)  # with repeats
        for values in self.envelopes(n, rng):
            for indices in (near_ends, np.sort(rng.choice(n, 40, replace=False)), np.arange(n),
                            shuffled):
                got = select_he_peaks(values, indices, fs)
                assert got.dtype == np.int64
                assert np.array_equal(got, select_he_peaks(values, np.unique(indices), fs))
                assert np.array_equal(got, reference_select_he_peaks(values, indices, fs))

    def test_epochs_beyond_the_envelope_rejected(self):
        # both [n, n + half), where a window would be cut short, and n + half on, where it is
        # empty; and negative indices, which the strided view would wrap to the envelope's end
        half = int(round(PEAK_SEARCH_MS * FS / 1000.0))
        n = 1000
        env = np.ones(n)
        for bad in (n, n + 1, n + half - 1, n + half, n + half + 5, -1, -half, -n):
            with pytest.raises(InvalidInputError):
                select_he_peaks(env, np.array([10, bad]), FS)
        assert select_he_peaks(env, np.array([0, 10, n - 1]), FS).size > 0


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
            got = _phase_reads(values, FS, peaks, pitch)
            assert got.tobytes() == self.reference(values, peaks, span).tobytes()

    def test_read_longer_than_series(self):
        values = np.linspace(-1.0, 1.0, 9)
        peaks = np.arange(9)
        got = _phase_reads(values, FS, peaks, 100.0)
        assert got.tobytes() == self.reference(values, peaks, 20).tobytes()

    def test_no_peaks(self):
        got = _phase_reads(np.zeros(100), FS, np.empty(0, dtype=np.int64), 120.0)
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
        cached_designs = (butterworth(2, fs, BAND_HIGH_HZ, BAND_LOW_HZ),
                          butterworth(4, fs, reskew.RESIDUAL_SMOOTH_HZ))
        for cached, (b, a) in zip(cached_designs, fresh):
            assert len(cached) == 3
            for got, want in zip(cached, (b, a, lfilter_zi(b, a))):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                with pytest.raises(ValueError):
                    got[0] = 1.0

    @pytest.mark.parametrize("fs", CACHE_RATES)
    def test_second_call_at_a_rate_designs_nothing(self, fs, monkeypatch):
        calls = {"band": 0, "low": 0}

        def design(*args, btype, **kwargs):
            calls[btype] += 1
            return butter(*args, btype=btype, **kwargs)

        monkeypatch.setattr(dsp, "butter", design)
        butterworth.cache_clear()
        x = generate_utterance(SynthSpec(pitch_hz=110.0, sample_rate_hz=48000, seed=95)).samples
        s = Signal(resample_poly(x, fs, 48000), fs)
        assert detect_polarity_hp(s).anchors_used > 0  # the flow stage ran
        detect_polarity_reskew(s)
        # above HP_ANALYSIS_RATE_HZ, hp's flow low-pass is designed at that rate and
        # reskew's at the input rate
        first = {"band": 1, "low": 1 if fs <= HP_ANALYSIS_RATE_HZ else 2}
        assert calls == first
        detect_polarity_hp(s)
        detect_polarity_reskew(s.negated())
        assert calls == first


class TestPitchEstimatedOnce:
    """Each detector estimates the mean pitch once; the stages take it as an argument."""

    @pytest.fixture
    def pitch_calls(self, monkeypatch):
        calls = []

        def counting(s):
            calls.append(s.sample_rate_hz)
            return estimate_mean_pitch(s)

        for module in (zff_stage, hilbert_phase, reskew):
            monkeypatch.setattr(module, "estimate_mean_pitch", counting)
        return calls

    @pytest.mark.parametrize("detect", (detect_polarity_hp, detect_polarity_reskew))
    def test_one_estimate_per_detector_call(self, detect, pitch_calls):
        detect(utterance(seed=33))
        assert len(pitch_calls) == 1

    def test_stages_given_a_pitch_estimate_none(self, pitch_calls):
        s = utterance(seed=33)
        zff_filter(s, 120.0)
        glottal_flow_estimate(s, mean_pitch_hz=120.0)
        assert pitch_calls == []
