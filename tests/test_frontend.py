"""The shared front end: one band pitch with its voiced-frame count, the unvoiced abstention,
and the memo of the last signal's exponent and pitch."""

import copy
import dataclasses
import gc
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from scipy.fft import prev_fast_len
from scipy.signal import resample_poly

from speechpolarity import (FrontEnd, InvalidInputError, Polarity, Signal, SynthSpec,
                            detect_polarity_hp, detect_polarity_reskew, estimate_mean_pitch,
                            front_end, frontend, generate_utterance, hilbert_phase, reskew,
                            reskew_statistic)
from speechpolarity.epochs import PITCH_FALLBACK_HZ, PITCH_MIN_VOICED_FRAMES, PitchEstimate
from speechpolarity.dsp import zero_phase_butterworth
from speechpolarity.frontend import (BAND_HIGH_HZ, BAND_LOW_HZ, HP_ANALYSIS_RATE_HZ, UNVOICED,
                                     exponent_and_pitch)
from speechpolarity.synth import _pink_noise

DETECTORS = (detect_polarity_hp, detect_polarity_reskew)
RATES = (8000, 16000, 48000)


def noise(kind: str, fs: int, seed: int) -> Signal:
    rng = np.random.default_rng(seed)
    return Signal(rng.standard_normal(fs) if kind == "white" else _pink_noise(fs, rng), fs)


@dataclasses.dataclass
class Holding:
    """A dataclass holding a detector-stage result, for ``dataclasses.asdict``."""

    result: object


class TestFrontEnd:
    @pytest.mark.parametrize("fs", (8000, 16000, 22050, 48000))
    def test_band_rate_length_and_pitch(self, fs):
        s = generate_utterance(SynthSpec(pitch_hz=150.0, sample_rate_hz=fs, seed=40))
        fe = front_end(s)
        assert isinstance(fe, FrontEnd)
        assert 0.5 <= np.abs(np.ldexp(s.samples, -fe.exponent)).max() < 1.0
        rate = min(fs, HP_ANALYSIS_RATE_HZ)
        assert fe.band.sample_rate_hz == rate
        assert fe.band.samples.size == prev_fast_len(fe.band.samples.size)
        assert fe.band.samples.size >= 0.98 * rate
        assert fe.pitch.voiced and abs(fe.pitch.hz - 150.0) < 3.0
        assert repr(fe.pitch) == repr(estimate_mean_pitch(fe.band))

    @pytest.mark.parametrize("fs", (22050, 44100, 96000))
    def test_band_is_that_of_the_reduced_ratio(self, fs):
        # resample_poly divides its factors by their gcd itself
        s = generate_utterance(SynthSpec(pitch_hz=150.0, duration_s=0.5, sample_rate_hz=fs,
                                         seed=43))
        fe = front_end(s)
        g = math.gcd(HP_ANALYSIS_RATE_HZ, fs)
        x = resample_poly(np.ldexp(s.samples, -fe.exponent), HP_ANALYSIS_RATE_HZ // g, fs // g)
        x = x[:prev_fast_len(x.size)]
        band = zero_phase_butterworth(x, 2, HP_ANALYSIS_RATE_HZ, BAND_HIGH_HZ, BAND_LOW_HZ)
        assert fe.band.samples.tobytes() == band.tobytes()

    def test_rescaled_by_a_power_of_two(self):
        s = generate_utterance(SynthSpec(pitch_hz=150.0, seed=41))
        quiet = 3e-200 * s.samples
        fe = front_end(Signal(quiet, s.sample_rate_hz))
        assert 0.5 <= np.abs(np.ldexp(quiet, -fe.exponent)).max() < 1.0

    @pytest.mark.parametrize("check", (front_end, exponent_and_pitch, detect_polarity_hp,
                                       detect_polarity_reskew, reskew_statistic))
    @pytest.mark.parametrize("s", (Signal(np.ones(800), 16000), Signal(np.ones(200), 500)),
                             ids=("too-short", "too-coarse"))
    def test_input_checked(self, check, s):
        for _ in range(2):  # invalid input is never remembered, so it raises on every call
            with pytest.raises(InvalidInputError):
                check(s)

    def test_voiced_frames_counted_in_the_same_pass(self):
        s = generate_utterance(SynthSpec(pitch_hz=130.0, duration_s=1.0, seed=42))
        pitch = estimate_mean_pitch(s)
        assert pitch.voiced_frames == 49  # (16000 - 640) // 320 + 1 frames, all voiced
        assert pitch.voiced
        silent = estimate_mean_pitch(Signal(np.zeros(16000), 16000))
        assert silent.hz == PITCH_FALLBACK_HZ and silent.voiced_frames == 0 and not silent.voiced

    @pytest.mark.parametrize("clone", (
        copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: dataclasses.asdict(Holding(r))["result"]),
        ids=("copy", "deepcopy", "pickle", "asdict"))
    def test_results_copy_and_pickle(self, clone):
        # a float subclass with a required second argument once made all but
        # copy.copy of a FrontEnd raise TypeError
        s = generate_utterance(SynthSpec(pitch_hz=130.0, seed=42))
        pitch = estimate_mean_pitch(s)
        assert type(clone(pitch)) is PitchEstimate and clone(pitch) == pitch
        fe = front_end(s)
        c = clone(fe)
        assert (c.exponent, c.pitch) == (fe.exponent, fe.pitch)
        band = c.band if isinstance(c.band, Signal) else Signal(**c.band)  # asdict: a dict
        assert band.sample_rate_hz == fe.band.sample_rate_hz
        assert band.samples.tobytes() == fe.band.samples.tobytes()


class TestUnvoicedAbstains:
    @pytest.mark.parametrize("fs", RATES)
    @pytest.mark.parametrize("kind", ("white", "pink"))
    def test_noise_is_unvoiced_for_both_methods(self, kind, fs):
        for seed in (1, 2, 3):
            s = noise(kind, fs, seed)
            assert front_end(s).pitch.voiced_frames < PITCH_MIN_VOICED_FRAMES
            for detect in DETECTORS:
                d = detect(s)
                assert d.polarity is Polarity.INDETERMINATE
                assert d == UNVOICED and d.evidence() == "unvoiced"

    def test_no_zff_hilbert_or_lp_on_unvoiced_input(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a detector stage ran on unvoiced input")

        monkeypatch.setattr(hilbert_phase, "zff_filter", refuse)
        monkeypatch.setattr(hilbert_phase, "analytic_signal", refuse)
        monkeypatch.setattr(reskew, "lp_residual", refuse)
        s = noise("white", 16000, 4)
        for detect in DETECTORS:
            assert detect(s) == UNVOICED

    @pytest.mark.parametrize("ms", (100, 110, 119))
    def test_input_under_120_ms_is_unvoiced(self, ms):
        s = generate_utterance(SynthSpec(pitch_hz=150.0, seed=43))
        short = Signal(s.samples[:16 * ms], 16000)
        for detect in DETECTORS:
            assert detect(short) == UNVOICED

    def test_unvoiced_decision_is_antisymmetric(self):
        s = noise("pink", 8000, 5)
        for detect in DETECTORS:
            assert detect(s.negated()) == detect(s) == UNVOICED


def copy_of(s: Signal) -> Signal:
    """A distinct Signal with the same samples: the front end has never seen it."""
    return Signal(s.samples, s.sample_rate_hz)


class TestMemo:
    """The front end remembers the last Signal it analysed: its exponent and pitch, no array."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"pitch": 0, "band": 0}  # estimates and band-pass filters run by the front end

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(frontend, "estimate_mean_pitch",
                            counting("pitch", frontend.estimate_mean_pitch))
        monkeypatch.setattr(frontend, "zero_phase_butterworth",
                            counting("band", frontend.zero_phase_butterworth))
        return calls

    @pytest.mark.parametrize("fs", RATES)
    @pytest.mark.parametrize("order,bands", [
        ((detect_polarity_hp, detect_polarity_reskew), 1),
        ((detect_polarity_reskew, detect_polarity_hp), 2),  # hp re-bands, but keeps the pitch
    ], ids=("hp-then-reskew", "reskew-then-hp"))
    def test_one_estimate_for_both_detectors(self, calls, fs, order, bands):
        s = generate_utterance(SynthSpec(pitch_hz=140.0, sample_rate_hz=fs, seed=44))
        cold = [detect(copy_of(s)) for detect in order]
        calls.update(pitch=0, band=0)
        assert [detect(s) for detect in order] == cold
        assert calls == {"pitch": 1, "band": bands}

    def test_statistic_reuses_the_pitch(self, calls):
        s = generate_utterance(SynthSpec(pitch_hz=140.0, seed=45))
        cold = reskew_statistic(copy_of(s))
        detect_polarity_hp(s)
        calls.update(pitch=0, band=0)
        assert reskew_statistic(s) == cold
        assert calls == {"pitch": 0, "band": 0}

    @pytest.mark.parametrize("fs", RATES)
    def test_decision_statistic_is_the_public_statistic(self, calls, fs):
        s = generate_utterance(SynthSpec(pitch_hz=140.0, sample_rate_hz=fs, seed=51))
        cold = copy_of(s)
        statistic = detect_polarity_reskew(cold).statistic
        assert statistic.hex() == reskew_statistic(cold).hex()
        assert calls["pitch"] == 1
        detect_polarity_hp(s)
        assert detect_polarity_reskew(s).statistic.hex() == reskew_statistic(s).hex()
        assert reskew_statistic(s).hex() == statistic.hex()
        assert calls["pitch"] == 2  # one estimate per signal

    def test_one_entry_for_the_last_signal(self, calls):
        # the memo holds the last signal only: a second signal evicts the first
        s1, s2 = (generate_utterance(SynthSpec(pitch_hz=140.0, seed=seed)) for seed in (52, 53))
        detect_polarity_hp(s1)
        detect_polarity_hp(s2)
        detect_polarity_reskew(s1)
        assert calls["pitch"] == 3

    def test_a_distinct_signal_gets_its_own_estimate(self, calls):
        s = generate_utterance(SynthSpec(pitch_hz=140.0, seed=46))
        detect_polarity_hp(s)
        detect_polarity_reskew(copy_of(s))
        detect_polarity_reskew(s.negated())
        assert calls["pitch"] == 3

    def test_holds_neither_the_signal_nor_an_array(self):
        s = generate_utterance(SynthSpec(pitch_hz=140.0, seed=47))
        detect_polarity_hp(s)
        ref, exponent, pitch = frontend._memo
        assert ref() is s
        assert (exponent, pitch) == exponent_and_pitch(s)
        assert type(exponent) is int and not isinstance(pitch, np.ndarray)
        del s
        gc.collect()
        assert ref() is None

    def test_threads_get_the_cold_decisions(self):
        signals = [generate_utterance(SynthSpec(pitch_hz=pitch, sample_rate_hz=8000, seed=seed,
                                                polarity=polarity))
                   for pitch, seed, polarity in ((110.0, 48, Polarity.POSITIVE),
                                                 (220.0, 49, Polarity.NEGATIVE))]
        cold = [[detect(copy_of(s)) for detect in DETECTORS] for s in signals]
        got = [[], []]
        turn = threading.Barrier(2, timeout=60)

        def decide(k):
            for _ in range(50):  # each detector call waits for the other thread's
                for detect in DETECTORS:
                    turn.wait()
                    got[k].append(detect(signals[k]))

        threads = [threading.Thread(target=decide, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the memo's reads and writes
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [c * 50 for c in cold]

    def test_samples_are_read_only(self):
        x = generate_utterance(SynthSpec(pitch_hz=140.0, seed=50)).samples.copy()
        s = Signal(x, 16000)
        with pytest.raises(ValueError):
            s.samples[0] = 0.0
        x[0] = 0.0  # the caller's own array stays writable
