"""ZFF filtering, pitch estimation, and epoch extraction on generator ground truth."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import filtfilt

from speechpolarity import (InvalidInputError, Polarity, Signal, SynthSpec, estimate_mean_pitch,
                            extract_epochs, generate_utterance, glottal_flow_estimate,
                            lp_residual, zff_filter)
from speechpolarity.dsp import butterworth, subtract_moving_average
from speechpolarity.epochs import (_PITCH_BLOCK_FRAMES, BOUNDARY_GUARD_SAMPLES,
                                   PITCH_FALLBACK_HZ, PITCH_FRAME_MS,
                                   PITCH_HOP_MS, ZFF_TREND_PASSES)
from speechpolarity.frontend import BAND_HIGH_HZ, BAND_LOW_HZ
from test_acceptance import evaluation_specs

FS = 16000


def utterance(pitch, seed=0, duration=1.0, jitter=1.0):
    return generate_utterance(SynthSpec(pitch_hz=pitch, duration_s=duration,
                                        sample_rate_hz=FS, jitter_pct=jitter, seed=seed))


def zff(s: Signal) -> Signal:
    """The ZFF output at the mean pitch estimated from the signal itself."""
    return zff_filter(s, estimate_mean_pitch(s).hz)


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


def reference_mean_pitch(s: Signal, fallback_hz: float = 120.0) -> float:
    """The pitch estimate computed frame by frame, one autocorrelation row at a time."""
    fs = s.sample_rate_hz
    x = s.samples
    if x.size < int(0.1 * fs):
        return fallback_hz
    frame = int(round(40.0 * fs / 1000.0))
    hop = int(round(20.0 * fs / 1000.0))
    lag_lo = int(round(2.5 * fs / 1000.0))
    lag_hi = int(round(20.0 * fs / 1000.0))
    if x.size < frame or lag_hi >= frame or lag_lo < 1:
        return fallback_hz
    starts = np.arange(0, x.size - frame + 1, hop)
    frames = np.stack([x[k:k + frame] for k in starts])
    frames = frames - frames.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(frames, 2 * frame, axis=1)
    acf = np.fft.irfft(spec * np.conj(spec), axis=1)[:, :frame]
    pitches = []
    for row in acf:
        r0 = row[0]
        if r0 <= 0.0:
            continue
        seg = row[lag_lo:lag_hi + 1] / r0
        k = int(np.argmax(seg))
        if seg[k] < 0.5:
            continue
        lag = float(lag_lo + k)
        j = lag_lo + k
        if 1 <= j < frame - 1:
            y0, y1, y2 = row[j - 1] / r0, row[j] / r0, row[j + 1] / r0
            denom = y0 - 2 * y1 + y2
            if denom < 0:
                delta = 0.5 * (y0 - y2) / denom
                if abs(delta) < 1.0:
                    lag = j + delta
        pitches.append(fs / lag)
    if len(pitches) < 5:
        return fallback_hz
    return float(np.mean(pitches))


def rowwise_mean_pitch(s: Signal) -> float:
    """The pitch estimate one frame at a time, each row's power formed as ``np.conj(spec) * spec``.

    One row's spectrum is far below numpy's 256 KiB temporary-elision size, so
    the product is evaluated as written, whatever the signal's length.
    """
    fs = s.sample_rate_hz
    x = s.samples
    frame = int(round(40.0 * fs / 1000.0))
    hop = int(round(20.0 * fs / 1000.0))
    lag_lo = int(round(2.5 * fs / 1000.0))
    lag_hi = int(round(20.0 * fs / 1000.0))
    pitches = []
    for k in range(0, x.size - frame + 1, hop):
        spec = np.fft.rfft(x[k:k + frame] - x[k:k + frame].mean(), 2 * frame)
        row = np.fft.irfft(np.conj(spec) * spec)
        r0 = row[0]
        if r0 <= 0.0:
            continue
        j = lag_lo + int(np.argmax(row[lag_lo:lag_hi + 1] / r0))
        if row[j] / r0 < 0.5:
            continue
        lag = float(j)
        y0, y1, y2 = row[j - 1] / r0, row[j] / r0, row[j + 1] / r0
        denom = y0 - 2 * y1 + y2
        if denom < 0 and abs(0.5 * (y0 - y2) / denom) < 1.0:
            lag = j + 0.5 * (y0 - y2) / denom
        pitches.append(fs / lag)
    return float(np.mean(pitches)) if len(pitches) >= 5 else PITCH_FALLBACK_HZ


def a5_positive_band(n_utterances: int) -> Signal:
    """The first positive A5 utterances laid end to end, through hp's 60-1600 Hz band."""
    specs = [spec for spec in evaluation_specs() if spec.polarity is Polarity.POSITIVE]
    x = np.concatenate([generate_utterance(spec).samples for spec in specs[:n_utterances]])
    return Signal(filtfilt(*butterworth(2, FS, BAND_HIGH_HZ, BAND_LOW_HZ)[:2], x), FS)


def longdouble_zff(s: Signal, mean_pitch_hz: float) -> Signal:
    """zff_filter's integrate-and-detrend passes computed in np.longdouble."""
    window_ms = np.clip(1.5 * 1000.0 / mean_pitch_hz, 3.0, 25.0)
    width = int(round(window_ms * s.sample_rate_hz / 1000.0))
    width = max(width + 1 - width % 2, 3)  # odd, at least 3
    y = s.samples.astype(np.longdouble) - s.samples[0]
    for _ in range(ZFF_TREND_PASSES):
        np.cumsum(y, out=y)
        subtract_moving_average(y, width)
    y = y.astype(np.float64)
    y[:2 * width] = 0.0
    y[y.size - 2 * width:] = 0.0
    return Signal(y, s.sample_rate_hz)


def reference_extract_epochs(y: Signal) -> np.ndarray:
    """The greedy scan over every refined crossing, one Python step each."""
    v = y.samples
    locs = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    refined = np.where(np.abs(v[locs]) <= np.abs(v[locs + 1]), locs, locs + 1)
    min_gap = int(round(y.sample_rate_hz / 1000.0))
    accepted = []
    last = -min_gap - 1
    for idx in refined:
        if idx < BOUNDARY_GUARD_SAMPLES or idx >= v.size - BOUNDARY_GUARD_SAMPLES:
            continue
        if idx - last < min_gap:
            continue
        accepted.append(int(idx))
        last = int(idx)
    return np.asarray(accepted, dtype=np.int64)


def assert_epochs_match_reference(y: Signal) -> None:
    got = extract_epochs(y)
    want = reference_extract_epochs(y)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestMeanPitch:
    @pytest.mark.parametrize("pitch,tol", [(100.0, 2.0), (250.0, 5.0)])
    def test_synthetic_trains(self, pitch, tol):
        est = estimate_mean_pitch(utterance(pitch, seed=int(pitch)))
        assert abs(est.hz - pitch) <= tol

    def test_white_noise_falls_back(self):
        rng = np.random.default_rng(0)
        est = estimate_mean_pitch(Signal(rng.standard_normal(FS), FS))
        assert est.hz == 120.0

    @pytest.mark.parametrize("fs", [8000, 16000, 48000])
    def test_matches_per_row_loop_exactly(self, fs):
        rng = np.random.default_rng(fs)
        voiced = [generate_utterance(SynthSpec(pitch_hz=pitch, duration_s=1.5, sample_rate_hz=fs,
                                               seed=seed)).samples
                  for seed, pitch in enumerate((85.0, 140.0, 230.0, 310.0))]
        inputs = voiced + [
            np.concatenate((voiced[1], 0.3 * rng.standard_normal(fs // 2))),  # some frames unvoiced
            rng.standard_normal(fs),  # no voiced frame: the fallback
            np.cumsum(rng.standard_normal(fs)),  # peaks at the lag-window edge: no refinement
            np.concatenate((np.zeros(int(0.2 * fs)), voiced[2])),  # frames with r0 = 0
        ]
        for x in inputs:
            s = Signal(x, fs)
            assert repr(estimate_mean_pitch(s).hz) == repr(reference_mean_pitch(s))

    @pytest.mark.parametrize("pitch,formants,seed", [
        (80.0, ((570.0, 70.0), (840.0, 90.0), (2410.0, 130.0)), 3),
        (300.0, ((300.0, 60.0), (2200.0, 100.0), (3000.0, 150.0)), 1),
        (150.0, ((700.0, 80.0), (1220.0, 100.0), (2600.0, 120.0)), 0),
    ])
    def test_power_formed_one_way_on_short_input(self, pitch, formants, seed):
        # 1 s at 8 kHz is 49 frames of 321 spectrum values, below the 16,384 at
        # which numpy's temporary elision turned spec * conj(spec) into
        # conj(spec) * spec; the first two inputs then read a last-bit different pitch.
        x = generate_utterance(SynthSpec(pitch_hz=pitch, sample_rate_hz=8000, formants=formants,
                                         seed=seed)).samples
        for y in (x, -x):
            s = Signal(y, 8000)
            assert repr(estimate_mean_pitch(s).hz) == repr(rowwise_mean_pitch(s))

    @pytest.mark.parametrize("fs", [8000, 16000, 48000])
    def test_block_boundaries_match_reference(self, fs):
        frame = int(round(PITCH_FRAME_MS * fs / 1000.0))
        hop = int(round(PITCH_HOP_MS * fs / 1000.0))
        b = _PITCH_BLOCK_FRAMES
        x = generate_utterance(SynthSpec(pitch_hz=170.0, sample_rate_hz=fs, seed=23,
                                         duration_s=(2 * b + 3) * PITCH_HOP_MS / 1e3)).samples
        for n_frames in (b - 1, b, b + 1, 2 * b + 1):
            s = Signal(x[:frame + (n_frames - 1) * hop], fs)
            assert repr(estimate_mean_pitch(s).hz) == repr(reference_mean_pitch(s))

    @pytest.mark.parametrize("exponent", [-900, -40, 3, 1000])
    def test_power_of_two_scaling_exact(self, exponent):
        s = utterance(120.0, seed=3)
        scaled = Signal(np.ldexp(s.samples, exponent), FS)
        assert repr(estimate_mean_pitch(scaled)) == repr(estimate_mean_pitch(s))

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e160, 1e200, 1e300])
    def test_very_loud_and_quiet_input(self, scale):
        # the frame autocorrelation would overflow (400 Hz, the top of the search) or
        # underflow (the unvoiced fallback) without rescaling
        s = utterance(120.0, seed=3)
        scaled = Signal(scale * s.samples, FS)
        assert estimate_mean_pitch(scaled).hz == pytest.approx(estimate_mean_pitch(s).hz, rel=1e-9)

    def test_short_signal_falls_back(self):
        est = estimate_mean_pitch(Signal(np.ones(100), FS))
        assert est.hz == 120.0

    def test_unvoiced_fallback_is_module_constant(self):
        rng = np.random.default_rng(1)
        assert estimate_mean_pitch(Signal(rng.standard_normal(FS), FS)).hz == PITCH_FALLBACK_HZ


class TestZffFilter:
    def test_dominant_frequency_tracks_pitch(self):
        s = utterance(100.0, seed=5)
        y = zff(s)
        assert abs(dominant_frequency(y) - 100.0) <= 3.0

    def test_linearity_negation(self):
        s = utterance(120.0, seed=9)
        y_pos = zff(s).samples
        y_neg = zff(s.negated()).samples
        scale = np.max(np.abs(y_pos))
        assert np.max(np.abs(y_pos + y_neg)) <= 1e-9 * scale

    def test_all_zero_input(self):
        y = zff(Signal(np.zeros(FS), FS))
        assert not y.samples.any()

    def test_too_short_raises(self):
        with pytest.raises(InvalidInputError):
            zff_filter(Signal(np.ones(64), FS), mean_pitch_hz=60.0)  # a 25 ms window

    @pytest.mark.parametrize("stage", (zff_filter, lambda s, mean_pitch_hz: glottal_flow_estimate(
        lp_residual(s), s.sample_rate_hz, mean_pitch_hz=mean_pitch_hz)),
        ids=("zff_filter", "glottal_flow_estimate"))
    @pytest.mark.parametrize("pitch", (0.0, -100.0, float("nan"), float("inf"), True, "120", None,
                                       np.array([120.0, 130.0])))
    def test_pitch_not_positive_and_finite_rejected(self, stage, pitch):
        # unchecked, 0 and nan raised raw arithmetic errors, -100 gave a flow
        # of magnitude 6e16, and -100 and inf clamped the ZFF window silently;
        # True ran as 1 Hz, and a string, None or an array raised raw
        # TypeError or ValueError
        with pytest.raises(InvalidInputError):
            stage(utterance(120.0, seed=3), mean_pitch_hz=pitch)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                        reason="np.longdouble is float64 here: the reference is no more "
                               "precise than the code under test")
    def test_sixty_seconds_match_longdouble_reference(self):
        # Four cumulative sums before any trend removal grew with the cube of the
        # length: at 60 s they were off by 4.7e-4 of the RMS, and the epochs moved.
        band = a5_positive_band(60)
        pitch = estimate_mean_pitch(band).hz
        y = zff_filter(band, pitch).samples
        ref = longdouble_zff(band, pitch).samples
        rms = np.sqrt(np.mean(ref ** 2))
        assert np.max(np.abs(y - ref)) <= 1e-6 * rms
        assert np.array_equal(extract_epochs(Signal(y, FS)),
                              extract_epochs(Signal(ref, FS)))

    def test_supplied_pitch_sizes_window(self):
        s = utterance(120.0, seed=12)
        assert not np.array_equal(zff_filter(s, mean_pitch_hz=300.0).samples,
                                  zff(s).samples)


class TestExtractEpochs:
    def test_epoch_count_on_pitch_train(self):
        # about two crossings per 10 ms pitch period over one second
        s = utterance(100.0, seed=2)
        epochs = extract_epochs(zff(s))
        assert 180 <= len(epochs) <= 220

    def test_negation_invariance(self):
        s = utterance(150.0, seed=4)
        e_pos = extract_epochs(zff(s))
        e_neg = extract_epochs(zff(s.negated()))
        assert np.array_equal(e_pos, e_neg)

    def test_scale_invariance(self):
        s = utterance(150.0, seed=4)
        e_base = extract_epochs(zff(s))
        e_scaled = extract_epochs(zff(Signal(10.0 * s.samples, FS)))
        assert np.array_equal(e_base, e_scaled)

    def test_silence_gives_empty(self):
        y = zff(Signal(np.zeros(FS), FS))
        assert len(extract_epochs(y)) == 0

    def test_spacing_and_range(self):
        s = utterance(220.0, seed=6)
        y = zff(s)
        idx = extract_epochs(y)
        assert idx.dtype == np.int64
        assert np.all(np.diff(idx) >= int(FS / 1000))
        assert idx[0] >= 16 and idx[-1] < len(y) - 16

    @pytest.mark.parametrize("pitch", [80.0, 100.0, 150.0, 220.0, 300.0])
    def test_epoch_density_band(self, pitch):
        s = utterance(pitch, seed=int(pitch) + 1)
        epochs = extract_epochs(zff(s))
        per_second = len(epochs) / s.duration_s
        assert 1.6 * pitch <= per_second <= 2.4 * pitch

    @pytest.mark.parametrize("fs", (8000, 16000, 48000))
    def test_matches_greedy_loop_on_zff_outputs(self, fs):
        # every 25th A5 utterance, and white noise, whose ZFF outputs cross often
        for spec in evaluation_specs()[::25]:
            assert_epochs_match_reference(zff(generate_utterance(replace(spec,
                                                                         sample_rate_hz=fs))))
        rng = np.random.default_rng(fs)
        for _ in range(4):
            assert_epochs_match_reference(zff(Signal(rng.standard_normal(fs), fs)))

    @staticmethod
    def crossings_at(n, flips, seed):
        """Random magnitudes whose sign flips after each index in ``flips``."""
        rng = np.random.default_rng(seed)
        steps = np.zeros(n, dtype=int)
        steps[np.asarray(flips) + 1] = 1
        return rng.uniform(0.1, 1.0, n) * np.where(np.cumsum(steps) % 2, -1.0, 1.0)

    def test_matches_greedy_loop_on_hand_built_crossings(self):
        fs, n = FS, 2000  # min_gap 16 samples, the boundary guard 16
        gap = int(round(fs / 1000.0))
        cases = {
            "none": np.ones(n),
            "inside the guard only": self.crossings_at(n, [3, 9, n - 12, n - 4], 0),
            "guard and interior": self.crossings_at(n, [2, 14, 15, 16, 40, n - 18, n - 17, n - 3],
                                                    1),
            # runs of 3 or more crossings closer than min_gap, and isolated ones
            "runs": self.crossings_at(n, [100, 105, 110, 115, 120, 125, 130, 200, 210, 219, 300,
                                          301, 302, 303, 304, 305, 306, 307, 308, 309, 310, 500,
                                          500 + gap, 500 + 2 * gap - 1, 700], 2),
            "dense noise": self.crossings_at(n, np.flatnonzero(
                np.random.default_rng(3).random(n - 1) < 0.3), 4),
        }
        # duplicate refined indices: a sign run of one tiny sample is both
        # crossings' sample nearest zero
        duplicates = np.ones(n)
        for k in (400, 800, 803, 806):
            duplicates[k] = -1e-3
        cases["duplicates"] = duplicates
        for v in cases.values():
            assert_epochs_match_reference(Signal(v, fs))
        locs = np.nonzero(duplicates[:-1] * duplicates[1:] < 0.0)[0]
        refined = np.where(np.abs(duplicates[locs]) <= np.abs(duplicates[locs + 1]), locs,
                           locs + 1)
        assert np.any(np.diff(refined) == 0)
        assert len(extract_epochs(Signal(cases["none"], fs))) == 0
        assert len(extract_epochs(Signal(cases["inside the guard only"], fs))) == 0
        # the greedy scan keeps two of the first run's seven crossings, 100 to 131
        runs = extract_epochs(Signal(cases["runs"], fs))
        assert runs[(runs >= 100) & (runs <= 131)].size == 2
