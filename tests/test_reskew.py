"""LP residual, skewness, and the glottal-skewness polarity baseline."""

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz
from scipy.signal import lfilter

from speechpolarity import (InvalidInputError, LpConfig, Polarity, Signal, SynthSpec,
                            UndefinedStatisticError, detect_polarity_reskew,
                            generate_utterance, levinson, lp_residual, reskew_statistic,
                            skewness)

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


def reference_lp_residual(s: Signal, cfg: LpConfig) -> np.ndarray:
    """Frame copies, a forward-fill loop and one ``lfilter`` call per frame."""
    fs = s.sample_rate_hz
    x = s.samples
    frame = int(round(cfg.frame_ms * fs / 1000.0))
    hop = int(round(cfg.hop_ms * fs / 1000.0))
    order = cfg.resolved_order(fs)
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

    def test_silence_gives_zeros(self):
        res = lp_residual(Signal(np.zeros(FS), FS))
        assert not res.samples.any()

    def test_silent_stretch_gives_zeros(self):
        # silent frames after voiced ones reuse the last healthy coefficients
        x = np.concatenate([utterance(seed=14, duration=0.5).samples, np.zeros(4000),
                            utterance(seed=15, duration=0.5).samples])
        res = lp_residual(Signal(x, FS)).samples
        cfg = LpConfig()
        frame, hop = round(cfg.frame_ms * FS / 1000), round(cfg.hop_ms * FS / 1000)
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
        cfg = LpConfig(order=order)
        for y in (x, np.concatenate([np.zeros(n), x]),
                  np.concatenate([x[:2 * n], np.zeros(n), x[2 * n:]]),
                  np.concatenate([1e200 * x[:n], x[n:2 * n], 1e200 * x[2 * n:]])):
            s = Signal(y, fs)
            assert lp_residual(s, cfg).samples.tobytes() == reference_lp_residual(s, cfg).tobytes()

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            LpConfig(order=2)
        with pytest.raises(InvalidInputError):
            LpConfig(hop_ms=30.0, frame_ms=25.0)
        with pytest.raises(InvalidInputError):
            LpConfig(order=8.5)


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
