"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run).  The synthetic evaluation set shared by
the accuracy and noise criteria is 400 utterances: 10 pitches spanning
80-300 Hz x 5 formant configurations x jitter 0-3% x both polarities.
"""

import os
import time

import numpy as np
import pytest

from speechpolarity import (HpConfig, NoiseSpec, Polarity, Signal, SynthSpec, ZffConfig,
                            analytic_signal, cosine_phase, detect_polarity_hp,
                            detect_polarity_reskew, extract_epochs, generate_utterance,
                            hilbert_envelope, hilbert_transform, mix_noise, parse_manifest,
                            evaluate_corpus, render_report, reskew_statistic, zff_filter)

FS = 16000

PITCHES = (80.0, 95.0, 110.0, 130.0, 150.0, 175.0, 200.0, 230.0, 265.0, 300.0)
FORMANT_SETS = (
    ((700.0, 80.0), (1220.0, 100.0), (2600.0, 120.0)),
    ((530.0, 70.0), (1840.0, 100.0), (2480.0, 140.0)),
    ((300.0, 60.0), (2200.0, 100.0), (3000.0, 150.0)),
    ((570.0, 70.0), (840.0, 90.0), (2410.0, 130.0)),
    ((440.0, 60.0), (1020.0, 90.0), (2240.0, 140.0)),
)
JITTERS = (0.0, 1.0, 2.0, 3.0)
SNR_LEVELS = (0.0, 5.0, 10.0, 15.0, 20.0, 30.0)


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def evaluation_specs():
    """The full 400-utterance set with deterministic seeds."""
    specs = []
    idx = 0
    for pitch in PITCHES:
        for formants in FORMANT_SETS:
            for jitter in JITTERS:
                for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE):
                    specs.append(SynthSpec(pitch_hz=pitch, duration_s=1.0,
                                           sample_rate_hz=FS, formants=formants,
                                           polarity=polarity, jitter_pct=jitter,
                                           seed=40000 + idx))
                    idx += 1
    return specs


def bandlimited_noise(n, fs, lo, hi, seed):
    rng = np.random.default_rng(seed)
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = 0.0
    return np.fft.irfft(spec, n)


class TestA1AnalyticIdentities:
    def test_a1(self):
        start = time.time()
        worst_env = worst_phase = worst_inv = 0.0
        for seed in range(100):
            x = bandlimited_noise(FS, FS, 50.0, 7000.0, 1000 + seed)
            s = Signal(x, FS)
            a_pos = analytic_signal(s)
            a_neg = analytic_signal(s.negated())
            env_pos = hilbert_envelope(a_pos).values
            env_neg = hilbert_envelope(a_neg).values
            worst_env = max(worst_env,
                            np.max(np.abs(env_pos - env_neg)) / (1.0 + env_pos.max()))
            eps = 1e-12 * env_pos.max()
            p_pos = cosine_phase(a_pos, eps).values
            p_neg = cosine_phase(a_neg, eps).values
            mask = env_pos > eps
            worst_phase = max(worst_phase, np.max(np.abs(p_pos[mask] + p_neg[mask])))
            hh = hilbert_transform(hilbert_transform(s)).samples
            worst_inv = max(worst_inv, np.linalg.norm(hh + x) / np.linalg.norm(x))
        elapsed = time.time() - start
        ok = worst_env <= 1e-12 and worst_phase <= 1e-12 and worst_inv <= 1e-6 and elapsed < 10.0
        _report("A1 analytic identities",
                ok, f"env={worst_env:.2e} phase={worst_phase:.2e} "
                    f"involution={worst_inv:.2e} runtime={elapsed:.1f}s")
        assert worst_env <= 1e-12
        assert worst_phase <= 1e-12
        assert worst_inv <= 1e-6
        assert elapsed < 10.0


class TestA2DecisionAntisymmetry:
    def test_a2(self):
        signals = []
        idx = 0
        for pitch in PITCHES:
            for formants in FORMANT_SETS:
                for jitter in JITTERS:
                    signals.append(generate_utterance(SynthSpec(
                        pitch_hz=pitch, duration_s=0.6, sample_rate_hz=FS,
                        formants=formants, jitter_pct=jitter, seed=70000 + idx)))
                    idx += 1
        assert len(signals) == 200
        rng_seeds = range(50)
        for k in rng_seeds:
            rng = np.random.default_rng(90000 + k)
            noise = rng.standard_normal(int(0.6 * FS))
            signals.append(Signal(noise if k % 2 else np.cumsum(noise) * 0.01, FS))

        hp_failures = 0
        stat_failures = 0
        for s in signals:
            d_pos = detect_polarity_hp(s)
            d_neg = detect_polarity_hp(s.negated())
            if d_pos.polarity is not Polarity.INDETERMINATE:
                flip_ok = (d_neg.polarity is d_pos.polarity.flipped()
                           and d_pos.positive_votes == d_neg.negative_votes
                           and d_pos.negative_votes == d_neg.positive_votes)
                if not flip_ok:
                    hp_failures += 1
            try:
                st_pos = reskew_statistic(s)
                st_neg = reskew_statistic(s.negated())
                if abs(st_pos + st_neg) > 1e-9 * max(abs(st_pos), 1e-30):
                    stat_failures += 1
            except Exception:
                stat_failures += 1
        ok = hp_failures == 0 and stat_failures == 0
        _report("A2 decision antisymmetry",
                ok, f"{len(signals)} signals, hp failures={hp_failures}, "
                    f"statistic failures={stat_failures}")
        assert hp_failures == 0
        assert stat_failures == 0


class TestA3ScaleInvariance:
    def test_a3(self):
        signals = []
        for k, pitch in enumerate((85.0, 120.0, 170.0, 240.0, 290.0) * 6):
            signals.append(generate_utterance(SynthSpec(
                pitch_hz=pitch, duration_s=0.6, sample_rate_hz=FS,
                formants=FORMANT_SETS[k % 5],
                polarity=Polarity.POSITIVE if k % 2 else Polarity.NEGATIVE,
                jitter_pct=float(k % 4), seed=60000 + k)))
        for k in range(10):
            rng = np.random.default_rng(61000 + k)
            signals.append(Signal(rng.standard_normal(int(0.6 * FS)), FS))

        failures = 0
        for s in signals:
            hp_base = detect_polarity_hp(s).polarity
            rk_base = detect_polarity_reskew(s).polarity
            for alpha in (1e-3, 0.5, 10.0):
                scaled = s.scaled(alpha)
                if detect_polarity_hp(scaled).polarity is not hp_base:
                    failures += 1
                if detect_polarity_reskew(scaled).polarity is not rk_base:
                    failures += 1
        _report("A3 scale invariance", failures == 0,
                f"{len(signals)} signals x 3 scales x 2 methods, failures={failures}")
        assert failures == 0


class TestA4ZffSanity:
    @staticmethod
    def dominant_frequency(y: Signal) -> float:
        v = y.samples - y.samples.mean()
        n = v.size
        spec = np.fft.rfft(v, 2 * n)
        acf = np.fft.irfft(spec * np.conj(spec))[:n]
        lo = int(round(y.sample_rate_hz / 400.0))
        hi = int(round(y.sample_rate_hz / 50.0))
        lag = lo + int(np.argmax(acf[lo:hi + 1]))
        return y.sample_rate_hz / lag

    def test_a4(self):
        rows = []
        ok = True
        for pitch in (80.0, 100.0, 150.0, 220.0, 300.0):
            s = generate_utterance(SynthSpec(pitch_hz=pitch, duration_s=1.0,
                                             sample_rate_hz=FS, jitter_pct=1.0,
                                             seed=50000 + int(pitch)))
            y = zff_filter(s)
            dom = self.dominant_frequency(y)
            density = len(extract_epochs(y)) / s.duration_s
            freq_ok = abs(dom - pitch) <= 0.03 * pitch
            dens_ok = 1.6 * pitch <= density <= 2.4 * pitch
            ok = ok and freq_ok and dens_ok
            rows.append(f"f0={pitch:.0f}: dom={dom:.1f} density={density:.0f}/s")
            assert freq_ok, rows[-1]
            assert dens_ok, rows[-1]
        _report("A4 ZFF sanity", ok, "; ".join(rows))


@pytest.fixture(scope="module")
def clean_decisions():
    """400 clean utterances evaluated by both methods (shared by A5)."""
    start = time.time()
    results = []
    for spec in evaluation_specs():
        s = generate_utterance(spec)
        results.append((spec, detect_polarity_hp(s).polarity,
                        detect_polarity_reskew(s).polarity))
    return results, time.time() - start


class TestA5SyntheticAccuracy:
    def test_a5(self, clean_decisions):
        results, elapsed = clean_decisions
        n = len(results)
        hp_ok = sum(1 for spec, hp, _ in results if hp is spec.polarity)
        rk_ok = sum(1 for spec, _, rk in results if rk is spec.polarity)
        agree = sum(1 for _, hp, rk in results if hp is rk)
        hp_pct = 100.0 * hp_ok / n
        rk_pct = 100.0 * rk_ok / n
        agree_pct = 100.0 * agree / n
        ok = hp_pct >= 99.5 and rk_pct >= 98.0 and agree_pct >= 98.0 and elapsed < 120.0
        _report("A5 synthetic oracle accuracy", ok,
                f"n={n} hp={hp_pct:.2f}% reskew={rk_pct:.2f}% "
                f"agreement={agree_pct:.2f}% runtime={elapsed:.0f}s")
        assert n == 400
        assert hp_pct >= 99.5
        assert rk_pct >= 98.0
        assert agree_pct >= 98.0
        assert elapsed < 120.0


class TestA6NoiseRobustness:
    def test_a6(self):
        specs = evaluation_specs()
        worst_cal = 0.0
        lines = []
        all_ok = True
        for snr in SNR_LEVELS:
            errors = 0
            for idx, spec in enumerate(specs):
                s = generate_utterance(spec)
                noisy = mix_noise(s, NoiseSpec("white", snr, seed=81000 + 7 * idx + int(snr)))
                noise = noisy.samples - s.samples
                measured = 10.0 * np.log10(np.sum(s.samples ** 2) / np.sum(noise ** 2))
                worst_cal = max(worst_cal, abs(measured - snr))
                if detect_polarity_hp(noisy).polarity is not spec.polarity:
                    errors += 1
            rate = 100.0 * errors / len(specs)
            lines.append(f"{snr:g}dB:{rate:.2f}%")
            if rate > 2.0:
                all_ok = False
        ok = all_ok and worst_cal <= 0.01
        _report("A6 noise robustness", ok,
                f"error rates {' '.join(lines)}; worst SNR calibration error "
                f"{worst_cal:.4f} dB")
        assert worst_cal <= 0.01
        for line in lines:
            level, rate = line.split(":")
            assert float(rate.rstrip("%")) <= 2.0, f"error rate at {level} exceeds 2%"


class TestA7ConditionalCorpora:
    def test_a7_arctic_slt(self):
        manifest_path = os.environ.get("SPEECHPOLARITY_SLT_MANIFEST")
        if not manifest_path:
            _report("A7 CMU-Arctic SLT", True, "skipped: corpus not supplied "
                    "(set SPEECHPOLARITY_SLT_MANIFEST)")
            pytest.skip("CMU-Arctic SLT not supplied")
        manifest = parse_manifest(manifest_path)
        report = evaluate_corpus(manifest, methods=("hp",))
        pct = report.per_method["hp"].percent_correct
        _report("A7 CMU-Arctic SLT", pct >= 99.5, f"{pct:.2f}% correct")
        assert pct >= 99.5

    def test_a7_emodb_egg(self):
        manifest_path = os.environ.get("SPEECHPOLARITY_EMODB_EGG_MANIFEST")
        if not manifest_path:
            _report("A7 EmoDb EGG", True, "skipped: corpus not supplied "
                    "(set SPEECHPOLARITY_EMODB_EGG_MANIFEST)")
            pytest.skip("EmoDb EGG not supplied")
        manifest = parse_manifest(manifest_path)
        assert all(e.true_polarity is Polarity.NEGATIVE for e in manifest.entries), \
            "EmoDb EGG ground truth is negative polarity"
        report = evaluate_corpus(manifest, methods=("hp",))
        _report("A7 EmoDb EGG", True,
                f"{report.per_method['hp'].percent_correct:.2f}% correct "
                f"against negative ground truth")


class TestA8ReportDeterminism:
    def test_a8(self, tmp_path):
        from speechpolarity import CorpusManifest, ManifestEntry, save_wav
        entries = []
        for k, (pitch, pol) in enumerate(((100.0, Polarity.POSITIVE),
                                          (160.0, Polarity.NEGATIVE),
                                          (220.0, Polarity.POSITIVE))):
            path = tmp_path / f"det{k}.wav"
            save_wav(path, generate_utterance(SynthSpec(
                pitch_hz=pitch, duration_s=0.6, sample_rate_hz=FS,
                polarity=pol, seed=82000 + k)))
            entries.append(ManifestEntry(str(path), pol, "speech"))
        manifest = CorpusManifest("determinism", tuple(entries))
        sweep = [NoiseSpec("white", 20.0, seed=5), NoiseSpec("pink", 10.0, seed=5)]
        runs = [evaluate_corpus(manifest, methods=("hp", "reskew"), noise_sweep=sweep)
                for _ in range(2)]
        csv_a, csv_b = (render_report(r, "csv") for r in runs)
        json_a, json_b = (render_report(r, "json") for r in runs)
        ok = csv_a == csv_b and json_a == json_b
        _report("A8 report determinism", ok,
                f"csv {len(csv_a)} bytes, json {len(json_a)} bytes, byte-identical={ok}")
        assert csv_a.encode() == csv_b.encode()
        assert json_a.encode() == json_b.encode()
