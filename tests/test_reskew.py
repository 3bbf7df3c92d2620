"""LP residual, skewness, and the glottal-skewness polarity baseline."""

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz
from scipy.signal import lfilter

from speechpolarity import (InvalidInputError, Polarity, Signal, SynthSpec,
                            UndefinedStatisticError, detect_polarity_reskew,
                            generate_utterance, levinson, lp_residual, reskew_statistic,
                            skewness)
from speechpolarity.reskew import LP_FRAME_MS, LP_HOP_MS

FS = 16000


def utterance(pitch=120.0, seed=0, jitter=1.0, duration=1.0, polarity=Polarity.POSITIVE):
    return generate_utterance(SynthSpec(pitch_hz=pitch, duration_s=duration,
                                        sample_rate_hz=FS, jitter_pct=jitter,
                                        polarity=polarity, seed=seed))


def spectral_flatness(x: np.ndarray) -> float:
    psd = np.abs(np.fft.rfft(x)) ** 2
    psd = psd[1:-1]
    psd = np.maximum(psd, 1e-300)
    return float(np.exp(np.mean(np.log(psd))) / np.mean(psd))


def reference_lp_residual(s: Signal, order: int | None) -> np.ndarray:
    """Frame copies, a forward-fill loop and one ``lfilter`` call per frame."""
    fs = s.sample_rate_hz
    x = s.samples
    frame = int(round(LP_FRAME_MS * fs / 1000.0))
    hop = int(round(LP_HOP_MS * fs / 1000.0))
    if order is None:
        order = int(np.clip(round(fs / 1000.0) + 2, 4, 40))
    starts = list(range(0, x.size - frame + 1, hop))
    if starts[-1] + frame < x.size:
        starts.append(x.size - frame)
    window = np.hamming(frame)
    frames = np.stack([x[k:k + frame] for k in starts])
    windowed = frames * window
    lags = np.empty((len(starts), order + 1))
    for k in range(order + 1):
        lags[:, k] = np.einsum("fj,fj->f", windowed[:, :frame - k], windowed[:, k:])
    coeffs, _, ok = levinson(lags)
    prev = np.zeros(order + 1)
    prev[0] = 1.0
    for f in range(len(starts)):
        if ok[f]:
            prev = coeffs[f]
        else:
            coeffs[f] = prev
    out = np.zeros(x.size)
    weight = np.zeros(x.size)
    for f, k in enumerate(starts):
        out[k:k + frame] += lfilter(coeffs[f], [1.0], frames[f]) * window
        weight[k:k + frame] += window
    weight[weight == 0.0] = 1.0
    return out / weight


def reference_levinson(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masked recursion that builds a fresh coefficient matrix at every stage."""
    r = np.atleast_2d(np.asarray(r, dtype=np.float64))
    nf, p1 = r.shape
    p = p1 - 1
    a = np.zeros((nf, p1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    ok = err > 0.0
    for i in range(1, p + 1):
        if i > 1:
            acc = np.einsum("fj,fj->f", a[:, 1:i], r[:, i - 1:0:-1])
        else:
            acc = np.zeros(nf)
        safe = np.where(ok & (err > 0.0), err, 1.0)
        k = np.where(ok, -(r[:, i] + acc) / safe, 0.0)
        upd = a.copy()
        upd[:, i] = k
        if i > 1:
            upd[:, 1:i] = a[:, 1:i] + k[:, None] * a[:, i - 1:0:-1]
        a = np.where(ok[:, None], upd, a)
        err = np.where(ok, err * (1.0 - k * k), err)
        ok = ok & (err > 0.0)
    return a, err, ok


def frame_lags(x: np.ndarray, order: int) -> np.ndarray:
    """Autocorrelation lags 0..order of each row of ``x``."""
    return np.stack([np.einsum("fj,fj->f", x[:, :x.shape[1] - k], x[:, k:])
                     for k in range(order + 1)], axis=1)


class TestLevinson:
    def test_matches_toeplitz_solver(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(400)
            order = 12
            r = np.array([np.dot(x[:x.size - k], x[k:]) for k in range(order + 1)])
            a, err, ok = levinson(r[None, :])
            assert ok[0]
            expected = solve_toeplitz((r[:-1], r[:-1]), r[1:])
            assert np.allclose(a[0, 1:], -expected, rtol=1e-8, atol=1e-10)
            assert err[0] > 0

    def test_breakdown_flagged(self):
        # perfectly predictable sequence: prediction error hits zero
        r = np.array([[1.0, 1.0, 1.0, 1.0]])
        _, _, ok = levinson(r)
        assert not ok[0]

    @staticmethod
    def assert_matches_reference(r):
        got, want = levinson(r), reference_levinson(r)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()  # sign bits and NaN positions included

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("order", (8, 18, 40))
    def test_matches_masked_reference_bitwise(self, order):
        rng = np.random.default_rng(order)
        x = rng.standard_normal((8, 400)) * np.hamming(400)
        r = frame_lags(np.vstack([x, np.zeros(400), 1e200 * x[0]]), order)  # silent, inf lags
        r[3, 2] = np.nan                        # a NaN lag
        r[4, 0] = -r[4, 0]                      # negative energy
        # exact lags of sinusoids and of a +-1 alternation: the prediction
        # error reaches zero, or rounds below it, at stages 1 to 6
        k = np.arange(order + 1)
        alternation = np.where(k % 2, -1.0, 1.0)
        exact = np.stack([np.cos(0.3 * k), np.cos(0.7 * k),
                          np.cos(0.3 * k) + 0.5 * np.cos(1.1 * k),
                          alternation, alternation + np.cos(0.5 * k)])
        assert reference_levinson(exact[:, :3])[2][[0, 2, 4]].all()  # healthy to stage 2
        r = np.vstack([r, exact])
        assert reference_levinson(r)[2].tolist() == [True] * 3 + [False] * 2 + [True] * 3 \
            + [False] * 7
        self.assert_matches_reference(r)

    @pytest.mark.parametrize("order", (8, 18, 40))
    def test_matches_masked_reference_on_healthy_batches(self, order):
        rng = np.random.default_rng(100 + order)
        for _ in range(10):
            x = rng.standard_normal((int(rng.integers(1, 300)), 600)) * np.hamming(600)
            r = frame_lags(x, order)
            assert reference_levinson(r)[2].all()
            self.assert_matches_reference(r)


class TestLpResidual:
    def test_whitens_synthetic_vowel(self):
        s = utterance(seed=1, jitter=0.0)
        res = lp_residual(s)
        assert spectral_flatness(res.samples) >= 5 * spectral_flatness(s.samples)

    def test_antisymmetry(self):
        s = utterance(seed=2)
        r_pos = lp_residual(s).samples
        r_neg = lp_residual(s.negated()).samples
        assert np.max(np.abs(r_pos + r_neg)) <= 1e-9 * np.max(np.abs(r_pos))

    def test_white_noise_near_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(FS)
        res = lp_residual(Signal(x, FS)).samples
        xc = x - x.mean()
        rc = res - res.mean()
        ncc = np.dot(xc, rc) / (np.linalg.norm(xc) * np.linalg.norm(rc))
        assert ncc >= 0.95

    def test_too_short_raises(self):
        with pytest.raises(InvalidInputError):
            lp_residual(Signal(np.ones(300), FS))

    def test_rate_below_one_sample_per_hop_rejected(self):
        for fs in (50, 100):
            with pytest.raises(InvalidInputError):
                lp_residual(Signal(np.ones(400), fs))

    def test_silence_gives_zeros(self):
        res = lp_residual(Signal(np.zeros(FS), FS))
        assert not res.samples.any()

    def test_silent_stretch_gives_zeros(self):
        # silent frames after voiced ones reuse the last healthy coefficients
        x = np.concatenate([utterance(seed=14, duration=0.5).samples, np.zeros(4000),
                            utterance(seed=15, duration=0.5).samples])
        res = lp_residual(Signal(x, FS)).samples
        frame, hop = round(LP_FRAME_MS * FS / 1000), round(LP_HOP_MS * FS / 1000)
        starts = list(range(0, x.size - frame + 1, hop)) + [x.size - frame]
        voiced = np.zeros(x.size, dtype=bool)
        for k in starts:
            if x[k:k + frame].any():
                voiced[k:k + frame] = True
        assert (~voiced).sum() >= 4000 - 2 * frame
        assert not res[~voiced].any()
        assert res[voiced].any()

    @pytest.mark.parametrize("order", (None, 8))
    @pytest.mark.parametrize("fs", (8000, 16000, 48000))
    def test_matches_per_frame_lfilter_bitwise(self, fs, order):
        # Silent frames and frames whose lags overflow both break the Levinson
        # recursion: at the start they take the identity filter, later the last
        # healthy frame's coefficients.
        x = generate_utterance(SynthSpec(pitch_hz=130.0, sample_rate_hz=fs, jitter_pct=1.0,
                                         seed=16)).samples
        n = x.size // 4
        for y in (x, np.concatenate([np.zeros(n), x]),
                  np.concatenate([x[:2 * n], np.zeros(n), x[2 * n:]]),
                  np.concatenate([1e200 * x[:n], x[n:2 * n], 1e200 * x[2 * n:]])):
            s = Signal(y, fs)
            assert lp_residual(s, order).samples.tobytes() == reference_lp_residual(s, order).tobytes()

    @pytest.mark.parametrize("fs", (11025, 22050, 44100))
    def test_matches_reference_where_frame_is_off_the_hop_grid(self, fs):
        # frame/hop = 276/55, 551/110 and 1102/220 samples: no whole number of hops.
        # Lengths cut short of the hop grid take the extra last frame; 6 s is
        # 1,200 frames, more than one overlap-add chunk.
        frame = int(round(LP_FRAME_MS * fs / 1000.0))
        hop = int(round(LP_HOP_MS * fs / 1000.0))
        assert frame % hop
        x = generate_utterance(SynthSpec(pitch_hz=140.0, sample_rate_hz=fs, seed=17)).samples
        on_grid = frame + (x.size - frame) // hop * hop
        long = generate_utterance(SynthSpec(pitch_hz=110.0, duration_s=6.0, sample_rate_hz=fs,
                                            seed=18)).samples
        for order in (None, 8):
            for y in (x[:on_grid], x[:on_grid - 1], x[:on_grid - 7], x[:on_grid - hop + 1], long,
                      long[:-1]):
                s = Signal(y, fs)
                assert lp_residual(s, order).samples.tobytes() == reference_lp_residual(s, order).tobytes()

    def test_frame_not_longer_than_filter_rejected(self):
        # np.correlate computes np.convolve's bits only for a frame longer than the filter
        x = np.random.default_rng(20).standard_normal(400)
        for fs, order in ((1000, 24), (1000, 40), (200, None), (150, None)):
            with pytest.raises(InvalidInputError):
                lp_residual(Signal(x, fs), order)
        s = Signal(x, 1000)
        assert lp_residual(s, 23).samples.tobytes() == reference_lp_residual(s, 23).tobytes()

    def test_order_validation(self):
        s = utterance(seed=19)
        for order in (2, 41, 8.5):
            with pytest.raises(InvalidInputError):
                lp_residual(s, order)


class TestSkewness:
    def test_symmetric_sequence_is_zero(self):
        assert skewness([1.0, 2.0, 3.0]) == 0.0

    def test_three_zeros_and_a_one(self):
        # m3 / m2^(3/2) = 2 / sqrt(3)
        assert skewness([0.0, 0.0, 0.0, 1.0]) == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-12)

    def test_odd_under_negation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500) ** 3
        assert skewness(-x) == -skewness(x)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500) ** 3
        assert skewness(3.5 * x + 2.0) == pytest.approx(skewness(x), abs=1e-9)

    def test_undefined_cases(self):
        with pytest.raises(UndefinedStatisticError):
            skewness([1.0, 2.0])
        with pytest.raises(UndefinedStatisticError):
            skewness([4.0, 4.0, 4.0, 4.0])
        with pytest.raises(UndefinedStatisticError):
            skewness([0.0, 0.0, 0.0, 1e-160])


class TestDetector:
    def test_positive_synthetic(self):
        assert detect_polarity_reskew(utterance(seed=6)).polarity is Polarity.POSITIVE

    def test_negative_synthetic(self):
        s = utterance(seed=6, polarity=Polarity.NEGATIVE)
        assert detect_polarity_reskew(s).polarity is Polarity.NEGATIVE

    def test_decision_flips_under_negation(self):
        for seed in (7, 8, 9):
            s = utterance(pitch=95.0 + 20 * seed, seed=seed)
            d_pos = detect_polarity_reskew(s)
            d_neg = detect_polarity_reskew(s.negated())
            assert d_pos.polarity is d_neg.polarity.flipped()

    def test_statistic_exactly_antisymmetric(self):
        for seed in (10, 11):
            s = utterance(pitch=150.0, seed=seed)
            a = reskew_statistic(s)
            b = reskew_statistic(s.negated())
            assert abs(a + b) <= 1e-9 * abs(a)

    def test_scale_invariant_decisions(self):
        s = utterance(seed=12)
        base = detect_polarity_reskew(s).polarity
        for alpha in (1e-3, 0.5, 10.0):
            assert detect_polarity_reskew(s.scaled(alpha)).polarity is base

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_extreme_scales_never_confidently_wrong(self):
        # the flow's moments under- or overflow here; a NaN statistic must not decide
        s = utterance(seed=12)
        for alpha in (1e-200, 1e-170, 1e-150, 1e150):
            d = detect_polarity_reskew(s.scaled(alpha))
            assert d.polarity in (Polarity.POSITIVE, Polarity.INDETERMINATE)

    def test_silence_is_indeterminate(self):
        silent = Signal(np.zeros(FS), FS)
        assert detect_polarity_reskew(silent).polarity is Polarity.INDETERMINATE

    def test_short_signal_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_polarity_reskew(Signal(np.ones(800), FS))
