"""Synthetic generator ground truth and calibrated noise mixing."""

import numpy as np
import pytest
from scipy.io import wavfile

from speechpolarity import (InvalidInputError, NoiseSpec, Polarity, Signal, SynthSpec,
                            generate_utterance, generate_utterance_with_instants, load_wav,
                            mix_noise)

FS = 16000


def measured_snr_db(mixed: Signal, clean: Signal) -> float:
    noise = mixed.samples - clean.samples
    return 10.0 * np.log10(np.sum(clean.samples ** 2) / np.sum(noise ** 2))


class TestGenerator:
    def test_instant_count_matches_pitch(self):
        spec = SynthSpec(pitch_hz=100.0, duration_s=1.0, sample_rate_hz=FS, seed=1)
        _, instants = generate_utterance_with_instants(spec)
        assert abs(len(instants) - 100) <= 1

    def test_negative_is_exact_negation(self):
        for seed in (0, 7, 23):
            pos = generate_utterance(SynthSpec(pitch_hz=140.0, seed=seed))
            neg = generate_utterance(SynthSpec(pitch_hz=140.0, seed=seed,
                                               polarity=Polarity.NEGATIVE))
            assert np.array_equal(pos.samples, -neg.samples)

    def test_reproducible_bit_identical(self):
        spec = SynthSpec(pitch_hz=180.0, duration_s=0.5, seed=99, jitter_pct=2.0)
        a = generate_utterance(spec).samples
        b = generate_utterance(spec).samples
        assert np.array_equal(a, b)

    def test_instants_are_negative_excursions(self):
        # positive polarity convention: sharp negative excursion at closure
        spec = SynthSpec(pitch_hz=100.0, duration_s=1.0, seed=3, jitter_pct=0.0,
                         formants=())
        s, instants = generate_utterance_with_instants(spec)
        vals = s.samples[instants]
        assert np.all(vals < 0)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(pitch_hz=30.0), "pitch_hz"),
        (dict(pitch_hz=100.0, jitter_pct=9.0), "jitter_pct"),
        (dict(pitch_hz=100.0, sample_rate_hz=16000, formants=((9000.0, 100.0),)), "formant centre"),
        (dict(pitch_hz=100.0, polarity=Polarity.INDETERMINATE), "polarity"),
        (dict(pitch_hz=100.0, duration_s=0.0), "duration_s"),
        (dict(pitch_hz=100.0, duration_s=1e-5), "duration_s"),
        (dict(pitch_hz=100.0, duration_s=float("nan")), "duration_s"),
        # unbounded, an infinite duration overflowed and 1e12 s exhausted memory
        (dict(pitch_hz=100.0, duration_s=float("inf")), "duration_s"),
        (dict(pitch_hz=100.0, duration_s=1e12), "duration_s"),
        (dict(pitch_hz=100.0, duration_s=3600.5), "duration_s"),
        # numpy's generator raised a bare ValueError, or a TypeError, on these
        (dict(pitch_hz=100.0, seed=-1), "seed"),
        (dict(pitch_hz=100.0, seed=1.5), "seed"),
        (dict(pitch_hz=100.0, formants=((700.0, 0.0),)), "bandwidth"),
        # a NaN bandwidth failed only after synthesis; an infinite one made an identity filter
        (dict(pitch_hz=100.0, formants=((700.0, float("nan")),)), "bandwidth"),
        (dict(pitch_hz=100.0, formants=((700.0, float("inf")),)), "bandwidth"),
        # once reported as a pitch error, or truncated to 16000 Hz
        (dict(pitch_hz=100.0, sample_rate_hz=-5), "sample rate"),
        (dict(pitch_hz=100.0, sample_rate_hz=0), "sample rate"),
        (dict(pitch_hz=100.0, sample_rate_hz=16000.5), "sample rate"),
        (dict(pitch_hz=100.0, seed=1.0), "seed"),
        (dict(pitch_hz=100.0, seed=True), "seed"),  # once taken as seed 1
    ])
    def test_spec_validation(self, kwargs, match):
        with pytest.raises(InvalidInputError, match=match):
            SynthSpec(**kwargs)

    @pytest.mark.parametrize("seed", (0, np.int64(7)), ids=("int", "int64"))
    def test_seed_stored_as_int(self, seed):
        for spec in (SynthSpec(pitch_hz=100.0, seed=seed), NoiseSpec("white", 10.0, seed=seed)):
            assert type(spec.seed) is int and spec.seed == seed

    def test_pitch_rate_limit(self):
        with pytest.raises(InvalidInputError):
            SynthSpec(pitch_hz=390.0, sample_rate_hz=2000)


class TestMixNoise:
    def setup_method(self):
        self.clean = generate_utterance(SynthSpec(pitch_hz=110.0, duration_s=1.0, seed=5))

    def test_zero_db_equal_energy(self):
        mixed = mix_noise(self.clean, NoiseSpec("white", 0.0, seed=1))
        noise = mixed.samples - self.clean.samples
        e_sig = np.sum(self.clean.samples ** 2)
        e_noise = np.sum(noise ** 2)
        assert abs(e_noise - e_sig) <= 1e-9 * e_sig

    def test_sixty_db_barely_changes_signal(self):
        mixed = mix_noise(self.clean, NoiseSpec("white", 60.0, seed=2))
        rel = (np.linalg.norm(mixed.samples - self.clean.samples)
               / np.linalg.norm(self.clean.samples))
        assert rel <= 1e-3 + 1e-9

    @pytest.mark.parametrize("snr", [0.0, 5.0, 10.0, 15.0, 20.0, 30.0])
    def test_requested_snr_reproduced(self, snr):
        mixed = mix_noise(self.clean, NoiseSpec("white", snr, seed=3))
        assert abs(measured_snr_db(mixed, self.clean) - snr) <= 0.01

    @pytest.mark.parametrize("kind", ["white", "pink"])
    def test_deterministic_given_seed(self, kind):
        a = mix_noise(self.clean, NoiseSpec(kind, 10.0, seed=11)).samples
        b = mix_noise(self.clean, NoiseSpec(kind, 10.0, seed=11)).samples
        assert np.array_equal(a, b)

    def test_pink_noise_spectrum_slopes_down(self):
        mixed = mix_noise(self.clean, NoiseSpec("pink", 0.0, seed=4))
        noise = mixed.samples - self.clean.samples
        spec = np.abs(np.fft.rfft(noise)) ** 2
        freqs = np.fft.rfftfreq(noise.size, 1 / FS)
        low = spec[(freqs > 50) & (freqs < 500)].mean()
        high = spec[(freqs > 4000) & (freqs < 7000)].mean()
        assert low > 5 * high

    @pytest.mark.parametrize("silent", ["signal", "noise"])
    def test_zero_energy_signal_rejected(self, silent):
        zeros = Signal(np.zeros(FS), FS)
        with pytest.raises(InvalidInputError, match="zero.energy"):
            if silent == "signal":
                mix_noise(zeros, NoiseSpec("white", 10.0))
            else:
                mix_noise(self.clean, NoiseSpec("file", 10.0, path="silence.wav"), noise=zeros)

    def test_missing_noise_file(self):
        # mix_noise reads no file: a `file` source without its samples is rejected
        with pytest.raises(InvalidInputError, match="babble.wav"):
            mix_noise(self.clean, NoiseSpec("file", 10.0, path="/nonexistent/babble.wav"))

    def test_noise_file_at_another_rate_rejected(self, tmp_path):
        path = tmp_path / "noise48k.wav"
        wavfile.write(path, 48000, np.random.default_rng(6).standard_normal(48000).astype(np.float32))
        spec = NoiseSpec("file", 10.0, path=str(path))
        with pytest.raises(InvalidInputError, match="48000 Hz"):
            mix_noise(self.clean, spec, noise=load_wav(path))
        same_rate = Signal(np.random.default_rng(6).standard_normal(FS), FS)
        mixed = mix_noise(self.clean, spec, noise=same_rate)
        assert abs(measured_snr_db(mixed, self.clean) - 10.0) <= 0.01

    def test_noise_spec_validation(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec("brown", 10.0)
        with pytest.raises(InvalidInputError):
            NoiseSpec("white", 99.0)
        with pytest.raises(InvalidInputError):
            NoiseSpec("file", 10.0)
        for seed in (-1, 2.0, True):  # -1 once failed only in evaluate_corpus's SeedSequence
            with pytest.raises(InvalidInputError, match="seed"):
                NoiseSpec("white", 10.0, seed=seed)
