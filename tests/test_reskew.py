"""LP residual, skewness, and the glottal-skewness polarity baseline."""

import warnings

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz
from scipy.ndimage import maximum_filter1d
from scipy.signal import lfilter

from speechpolarity import (InvalidInputError, Polarity, PolarityDecision, Signal, SynthSpec,
                            UndefinedStatisticError, detect_polarity_hp, detect_polarity_reskew,
                            generate_utterance, levinson, lp_residual, reskew_statistic,
                            skewness)
from speechpolarity import reskew
from speechpolarity.reskew import _TAP_BLOCK_VALUES, LP_FRAME_MS, LP_HOP_MS

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
    with np.errstate(over="ignore", invalid="ignore"):  # as in lp_residual
        for k in range(order + 1):
            lags[:, k] = np.matmul(windowed[:, None, :frame - k], windowed[:, k:, None])[:, 0, 0]
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


def assert_matches_reference(s: Signal, order: int | None) -> None:
    """``lp_residual`` against ``reference_lp_residual``, sample by sample.

    Each sample's blended taps are summed in another order than the
    per-frame loop's, so the two differ by a few ulps of the nearby residual
    (4.7e-14 of it at most, measured): each difference must be within 1e-12
    of the largest reference magnitude within one frame, and the residual
    exactly zero wherever that is zero.
    """
    got, want = lp_residual(s, order), reference_lp_residual(s, order)
    frame = int(round(LP_FRAME_MS * s.sample_rate_hz / 1000.0))
    local = maximum_filter1d(np.abs(want), 2 * frame + 1, mode="constant")
    assert np.all(np.abs(got - want) <= 1e-12 * local)
    assert not got[local == 0.0].any()


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
        ok = want[2]
        assert got[2].tobytes() == ok.tobytes()
        for g, w in zip(got[:2], want[:2]):  # defined on the ok rows only
            assert g[ok].tobytes() == w[ok].tobytes()  # sign bits included

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

    @staticmethod
    def healthy_lags(rows, order, seed):
        x = np.random.default_rng(seed).standard_normal((rows, 600)) * np.hamming(600)
        r = frame_lags(x, order)
        assert reference_levinson(r)[2].all()
        return r

    @staticmethod
    def break_at(r, stage):
        """Break rows at ``stage``: a lag far above the energy makes |k| > 1 there."""
        r = r.copy()
        r[:, stage] = 1e6 * r[:, 0]
        assert reference_levinson(r[:, :stage])[2].all()
        assert not reference_levinson(r[:, :stage + 1])[2].any()
        return r

    @pytest.mark.parametrize("order", (8, 40))
    def test_rows_breaking_at_first_middle_and_last_stage(self, order):
        r = self.healthy_lags(40, order, seed=order)
        for rows, stage in ((slice(3, 6), 1), (slice(10, 12), order // 2), (slice(30, 31), order)):
            r[rows] = self.break_at(r[rows], stage)
        assert reference_levinson(r)[2].sum() == 34
        self.assert_matches_reference(r)

    @pytest.mark.parametrize("order", (8, 40))
    def test_every_row_breaking(self, order):
        r = self.healthy_lags(3 * order, order, seed=50 + order)
        r = np.vstack([self.break_at(r[i::order], i + 1) for i in range(order)])
        assert not reference_levinson(r)[2].any()
        self.assert_matches_reference(r)

    def test_no_row_healthy_at_the_start(self):
        self.assert_matches_reference(np.zeros((5, 11)))
        r = np.zeros((4, 9))
        r[:, 0] = (0.0, -0.0, -1.0, np.nan)
        r[:, 1] = 0.5
        self.assert_matches_reference(r)

    @pytest.mark.parametrize("stage", (None, 1, 5, 10))
    def test_single_one_dimensional_row(self, stage):
        r = self.healthy_lags(1, 10, seed=60)
        if stage is not None:
            r = self.break_at(r, stage)
        self.assert_matches_reference(r[0])
        assert levinson(r[0])[0].shape == (1, 11)

    def test_overflowing_rows_break_down_silently(self):
        # a RuntimeWarning fails the suite: inf lags, and a lag whose k * k
        # overflows, end their rows without one
        r = self.healthy_lags(3, 8, seed=70)
        r[1] = np.inf
        r[2, 3] = 1e300 * r[2, 0]
        assert levinson(r)[2].tolist() == [True, False, False]

    def test_one_zero_lag_per_row(self):
        a, err, ok = levinson(np.array([[2.0], [0.0]]))
        assert a.tolist() == [[1.0], [1.0]] and err.tolist() == [2.0, 0.0]
        assert ok.tolist() == [True, False]

    @pytest.mark.parametrize("r", (np.array([]), np.zeros((2, 0)), np.zeros((2, 3, 4)),
                                   np.float64(1.0)), ids=("empty", "no-lag-column", "3-d", "0-d"))
    def test_malformed_lags_rejected(self, r):
        with pytest.raises(InvalidInputError, match="lags"):
            levinson(r)


class TestLpResidual:
    def test_whitens_synthetic_vowel(self):
        s = utterance(seed=1, jitter=0.0)
        res = lp_residual(s)
        assert spectral_flatness(res) >= 5 * spectral_flatness(s.samples)

    @pytest.mark.parametrize("order", (None, 8))
    @pytest.mark.parametrize("fs", (8000, 16000, 48000))
    def test_antisymmetry(self, fs, order):
        # the coefficients are even in the samples and every later step is odd,
        # so negation is exact (a zero may change its sign)
        s = generate_utterance(SynthSpec(pitch_hz=120.0, sample_rate_hz=fs, jitter_pct=1.0,
                                         seed=2))
        assert np.array_equal(lp_residual(s.negated(), order), -lp_residual(s, order))

    def test_white_noise_near_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(FS)
        res = lp_residual(Signal(x, FS))
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
        assert not res.any()

    def test_silent_stretch_gives_zeros(self):
        # silent frames after voiced ones reuse the last healthy coefficients
        x = np.concatenate([utterance(seed=14, duration=0.5).samples, np.zeros(4000),
                            utterance(seed=15, duration=0.5).samples])
        res = lp_residual(Signal(x, FS))
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
    def test_matches_per_frame_lfilter(self, fs, order):
        # Silent frames and frames whose lags overflow both break the Levinson
        # recursion: at the start they take the identity filter, later the last
        # healthy frame's coefficients.
        x = generate_utterance(SynthSpec(pitch_hz=130.0, sample_rate_hz=fs, jitter_pct=1.0,
                                         seed=16)).samples
        n = x.size // 4
        for y in (x, np.concatenate([np.zeros(n), x]),
                  np.concatenate([x[:2 * n], np.zeros(n), x[2 * n:]]),
                  np.concatenate([1e200 * x[:n], x[n:2 * n], 1e200 * x[2 * n:]])):
            assert_matches_reference(Signal(y, fs), order)

    @pytest.mark.parametrize("fs", (11025, 22050, 44100))
    def test_matches_reference_where_frame_is_off_the_hop_grid(self, fs):
        # frame/hop = 276/55, 551/110 and 1102/220 samples: no whole number of hops.
        # Lengths cut short of the hop grid take the extra last frame; 6 s is
        # 1,200 frames against the 1 s input's 200.
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
                assert_matches_reference(Signal(y, fs), order)

    @pytest.mark.parametrize("fs", (16000, 44100))
    def test_lag_block_boundaries_match_reference(self, fs):
        # n frames on the hop grid, and (at 44.1 kHz, frame 1102, hop 220) n - 1
        # grid frames plus the extra last frame
        frame = int(round(LP_FRAME_MS * fs / 1000.0))
        hop = int(round(LP_HOP_MS * fs / 1000.0))
        b = _TAP_BLOCK_VALUES // frame  # frames per block of lags
        x = generate_utterance(SynthSpec(pitch_hz=125.0, duration_s=(2 * b + 2) * LP_HOP_MS / 1e3
                                         + LP_FRAME_MS / 1e3, sample_rate_hz=fs,
                                         seed=24)).samples
        lengths = [frame + (n - 1) * hop for n in (b - 1, b, b + 1, 2 * b + 1)]
        if frame % hop:
            lengths += [frame + (n - 2) * hop + 1 for n in (b, b + 1)]
        for n in lengths:
            for order in (None, 8):
                assert_matches_reference(Signal(x[:n], fs), order)

    @pytest.mark.parametrize("fs", (16000, 44100, 48000))
    def test_lags_are_bit_identical_at_any_block_size(self, monkeypatch, fs):
        # 1.5 s is 296 frames (297 at 44.1 kHz, the last off the hop grid):
        # budgets of 1 and 7 frames, the default (327, 118 and 109 frames) and
        # one block of all frames; a budget below one frame still copies one.
        # A row's BLAS dot product must not depend on its block or address.
        s = generate_utterance(SynthSpec(pitch_hz=115.0, duration_s=1.5, sample_rate_hz=fs,
                                         seed=27))
        frame = int(round(LP_FRAME_MS * fs / 1000.0))
        for order in (None, 8):
            default = lp_residual(s, order).tobytes()
            for values in (1, frame, 7 * frame, _TAP_BLOCK_VALUES, s.samples.size * frame):
                monkeypatch.setattr(reskew, "_TAP_BLOCK_VALUES", values)
                assert lp_residual(s, order).tobytes() == default
            monkeypatch.undo()

    @pytest.mark.parametrize("fs,orders", [(16000, (None, 8)), (44100, (None, 8)), (1000, (23,))])
    def test_tap_block_boundaries_are_bit_identical(self, monkeypatch, fs, orders):
        # blocks of 12 hop rows, and one block, against the default; lengths of
        # 1, 2 and 3 blocks, on and off the frame grid (44.1 kHz: frame 1102,
        # hop 220), and 2 blocks and one row.  At 1 kHz (frame 25, hop 5) the
        # 23 taps reach back over 5 rows.
        frame = int(round(LP_FRAME_MS * fs / 1000.0))
        hop = int(round(LP_HOP_MS * fs / 1000.0))
        rows = 12
        if fs == 1000:
            x = np.random.default_rng(26).standard_normal(3 * rows * hop + hop)
        else:
            x = generate_utterance(SynthSpec(pitch_hz=125.0, duration_s=0.2, sample_rate_hz=fs,
                                             seed=26)).samples
        assert x.size >= 3 * rows * hop + hop
        lengths = []
        for r in (rows, 2 * rows, 2 * rows + 1, 3 * rows):
            on_grid = frame + (r * hop - frame) // hop * hop
            lengths += [on_grid, on_grid + hop - 1, r * hop - 1]
        for order in orders:
            p = reskew._lp_order(order, fs)
            for n in lengths:
                s = Signal(x[:n], fs)
                default = lp_residual(s, order)
                for block in (rows, n):
                    monkeypatch.setattr(reskew, "_TAP_BLOCK_VALUES", block * hop * (p + 1))
                    assert lp_residual(s, order).tobytes() == default.tobytes()
                monkeypatch.undo()

    @pytest.mark.parametrize("fs", (8000, 11025, 16000, 44100))
    def test_two_frames_are_the_shortest_input(self, fs):
        # 2 frames at 11.025 and 44.1 kHz end off the hop grid and take the extra last frame
        frame = int(round(LP_FRAME_MS * fs / 1000.0))
        x = generate_utterance(SynthSpec(pitch_hz=150.0, duration_s=0.1, sample_rate_hz=fs,
                                         seed=21)).samples
        for order in (None, 8):
            assert_matches_reference(Signal(x[:2 * frame], fs), order)
            with pytest.raises(InvalidInputError, match="too short"):
                lp_residual(Signal(x[:2 * frame - 1], fs), order)

    def test_frame_not_longer_than_filter_rejected(self):
        # a frame must hold more than order + 1 samples to fit order coefficients
        x = np.random.default_rng(20).standard_normal(400)
        for fs, order in ((1000, 24), (1000, 40), (200, None), (150, None)):
            with pytest.raises(InvalidInputError):
                lp_residual(Signal(x, fs), order)
        assert_matches_reference(Signal(x, 1000), 23)

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

    @pytest.mark.parametrize("x,match", [
        ([1.0, np.inf, 2.0, 3.0], "non-finite"), ([1.0, np.nan, 2.0], "non-finite"),
        ([-np.inf, 0.0, np.inf], "non-finite"), ([np.inf] * 3, "constant")])
    def test_non_finite_undefined_without_warning(self, x, match):
        # the centring warned "invalid value encountered in subtract" before raising
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UndefinedStatisticError, match=match):
                skewness(np.array(x))


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
            assert detect_polarity_reskew(Signal(alpha * s.samples, FS)).polarity is base

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_extreme_scales_never_confidently_wrong(self):
        # the flow's moments under- or overflow here; a NaN statistic must not decide
        s = utterance(seed=12)
        for alpha in (1e-200, 1e-170, 1e-150, 1e150):
            d = detect_polarity_reskew(Signal(alpha * s.samples, FS))
            assert d.polarity in (Polarity.POSITIVE, Polarity.INDETERMINATE)

    def test_silence_is_indeterminate(self):
        silent = Signal(np.zeros(FS), FS)
        assert detect_polarity_reskew(silent).polarity is Polarity.INDETERMINATE

    @pytest.mark.parametrize("skew,statistic", [(None, 0.0), (5e-7, 5e-7)])
    def test_abstains_on_an_undefined_or_tiny_statistic(self, monkeypatch, skew, statistic):
        # silence stops at the front end, so a voiced utterance with a stubbed skewness
        # reaches the two abstentions after the flow: None raises, as a constant flow would
        def stub(x):
            if skew is None:
                raise UndefinedStatisticError("stub")
            return skew

        monkeypatch.setattr(reskew, "skewness", stub)
        assert detect_polarity_reskew(utterance(seed=6)) == PolarityDecision(
            Polarity.INDETERMINATE, statistic=statistic)

    def test_short_signal_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_polarity_reskew(Signal(np.ones(800), FS))


# f0 and polarity of the DC-offset cells; each utterance's seed is int(f0).
DC_CELLS = [(f0, polarity) for f0 in (90.0, 130.0, 200.0, 280.0)
            for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE)]


class TestDcOffset:
    """A DC offset of 0.3 times the peak: reskew removes the mean before its LP."""

    @pytest.mark.parametrize("detect", (detect_polarity_reskew, detect_polarity_hp))
    def test_right_on_every_cell(self, detect):
        for f0, polarity in DC_CELLS:
            x = generate_utterance(SynthSpec(pitch_hz=f0, sample_rate_hz=16000, polarity=polarity,
                                             seed=int(f0))).samples
            s = Signal(x + 0.3 * np.abs(x).max(), 16000)
            assert detect(s).polarity is polarity, (f0, polarity)
