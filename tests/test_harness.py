"""WAV I/O, manifest parsing, the evaluation protocol, and report rendering."""

import json

import numpy as np
import pytest
from scipy.io import wavfile

from speechpolarity import (CorpusManifest, InvalidInputError, ManifestEntry, NoiseSpec,
                            Polarity, Signal, SynthSpec, evaluate_corpus, generate_utterance,
                            load_wav, parse_manifest, render_report, save_wav)

FS = 16000


def make_corpus(tmp_path, entries):
    """entries: list of (name, pitch, polarity, kind); returns a manifest."""
    manifest_entries = []
    for name, pitch, polarity, kind in entries:
        spec = SynthSpec(pitch_hz=pitch, duration_s=0.6, sample_rate_hz=FS,
                         polarity=polarity, seed=hash(name) % 100000)
        path = tmp_path / f"{name}.wav"
        save_wav(path, generate_utterance(spec))
        manifest_entries.append(ManifestEntry(str(path), polarity, kind))
    return CorpusManifest("testcorpus", tuple(manifest_entries))


class TestWavIO:
    def test_full_scale_int16(self, tmp_path):
        path = tmp_path / "fullscale.wav"
        wavfile.write(path, FS, np.array([32767, -32768, 0], dtype=np.int16))
        s = load_wav(path)
        assert s.samples[0] == pytest.approx(0.999969482421875, abs=1e-12)
        assert s.samples[1] == -1.0
        assert s.sample_rate_hz == FS

    def test_round_trip_quantization_bound(self, tmp_path):
        s = generate_utterance(SynthSpec(pitch_hz=130.0, duration_s=0.3, seed=17))
        path = tmp_path / "roundtrip.wav"
        save_wav(path, s)
        back = load_wav(path)
        assert back.sample_rate_hz == s.sample_rate_hz
        assert np.max(np.abs(back.samples - s.samples)) <= 1.0 / 32768

    def test_float32_supported(self, tmp_path):
        path = tmp_path / "f32.wav"
        data = np.linspace(-0.5, 0.5, 100, dtype=np.float32)
        wavfile.write(path, FS, data)
        s = load_wav(path)
        assert np.allclose(s.samples, data, atol=1e-7)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        wavfile.write(path, FS, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(InvalidInputError, match="mono"):
            load_wav(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError, match="missing.wav"):
            load_wav("/nonexistent/missing.wav")

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "u8.wav"
        wavfile.write(path, FS, np.zeros(64, dtype=np.uint8))
        with pytest.raises(InvalidInputError, match="format"):
            load_wav(path)


class TestManifest:
    def test_parse_with_comments_and_relative_paths(self, tmp_path):
        wav = tmp_path / "a.wav"
        save_wav(wav, generate_utterance(SynthSpec(pitch_hz=100.0, duration_s=0.2, seed=1)))
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("# test corpus\na.wav, positive, speech\n\n", encoding="utf-8")
        parsed = parse_manifest(manifest)
        assert parsed.name == "corpus"
        assert parsed.entries[0].path == str(wav)
        assert parsed.entries[0].true_polarity is Polarity.POSITIVE
        assert parsed.entries[0].kind == "speech"

    def test_bad_line_rejected(self, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("only_one_field\n", encoding="utf-8")
        with pytest.raises(InvalidInputError):
            parse_manifest(manifest)

    def test_duplicate_paths_rejected(self):
        e = ManifestEntry("x.wav", Polarity.POSITIVE, "speech")
        with pytest.raises(InvalidInputError):
            CorpusManifest("dup", (e, e))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            CorpusManifest("k", (ManifestEntry("x.wav", Polarity.POSITIVE, "other"),))


class TestEvaluateCorpus:
    def test_clean_evaluation_counts(self, tmp_path):
        manifest = make_corpus(tmp_path, [
            ("pos1", 100.0, Polarity.POSITIVE, "speech"),
            ("neg1", 140.0, Polarity.NEGATIVE, "speech"),
        ])
        report = evaluate_corpus(manifest, methods=("hp", "reskew"))
        for m in ("hp", "reskew"):
            tally = report.per_method[m]
            assert tally.trials == 4  # 2 files x 2 orientations
            assert tally.correct == 4
            assert tally.percent_correct == 100.0
        assert not report.consistency_failures
        assert len(report.per_file) == 8

    def test_negative_ground_truth_honored(self, tmp_path):
        # a corpus recorded with negative polarity scores perfectly when its
        # manifest says so, and 0% if the label is (wrongly) positive
        manifest_ok = make_corpus(tmp_path, [("egg1", 110.0, Polarity.NEGATIVE, "egg")])
        report = evaluate_corpus(manifest_ok, methods=("hp",))
        assert report.per_method["hp"].correct == 2
        wrong = CorpusManifest("mislabelled", (
            ManifestEntry(manifest_ok.entries[0].path, Polarity.POSITIVE, "egg"),))
        report_wrong = evaluate_corpus(wrong, methods=("hp",))
        assert report_wrong.per_method["hp"].correct == 0
        assert report_wrong.per_method["hp"].false == 2

    def test_empty_methods(self, tmp_path):
        manifest = make_corpus(tmp_path, [("pos1", 100.0, Polarity.POSITIVE, "speech")])
        report = evaluate_corpus(manifest, methods=())
        assert report.per_method == {}
        assert report.per_file == []

    def test_missing_file_recorded_not_raised(self, tmp_path):
        manifest = CorpusManifest("broken", (
            ManifestEntry(str(tmp_path / "ghost.wav"), Polarity.POSITIVE, "speech"),))
        report = evaluate_corpus(manifest, methods=("hp",))
        assert report.per_method["hp"].indeterminate == 2
        assert all(r.error for r in report.per_file)

    def test_missing_file_under_noise_sweep(self, tmp_path):
        manifest = CorpusManifest("broken", (
            ManifestEntry(str(tmp_path / "ghost.wav"), Polarity.POSITIVE, "speech"),))
        sweep = [NoiseSpec("white", 30.0, seed=5), NoiseSpec("white", 10.0, seed=5)]
        report = evaluate_corpus(manifest, methods=("hp", "reskew"), noise_sweep=sweep)
        for m in ("hp", "reskew"):
            assert report.per_method[m].indeterminate == 4  # 2 levels x 2 orientations
            assert report.per_snr[m] == {10.0: 1.0, 30.0: 1.0}
        assert len(report.per_file) == 8
        assert all(r.decision == "error" and r.error for r in report.per_file)

    def test_silent_file_under_noise_sweep(self, tmp_path):
        path = tmp_path / "silence.wav"
        wavfile.write(path, FS, np.zeros(FS, dtype=np.int16))
        manifest = CorpusManifest("silent", (ManifestEntry(str(path), Polarity.POSITIVE, "speech"),))
        report = evaluate_corpus(manifest, methods=("hp", "reskew"),
                                 noise_sweep=[NoiseSpec("white", 10.0, seed=1)])
        for m in ("hp", "reskew"):
            assert report.per_method[m].indeterminate == 2
            assert report.per_snr[m] == {10.0: 1.0}
        assert all(r.decision == "error" and r.error for r in report.per_file)

    def test_silent_noise_file_rejected(self, tmp_path):
        noise = tmp_path / "silent-noise.wav"
        wavfile.write(noise, FS, np.zeros(FS, dtype=np.int16))
        manifest = make_corpus(tmp_path, [("pos1", 100.0, Polarity.POSITIVE, "speech")])
        with pytest.raises(InvalidInputError, match="zero energy"):
            evaluate_corpus(manifest, methods=("hp",),
                            noise_sweep=[NoiseSpec("file", 10.0, seed=1, path=str(noise))])

    def test_noise_sweep_populates_per_snr(self, tmp_path):
        manifest = make_corpus(tmp_path, [("pos1", 100.0, Polarity.POSITIVE, "speech")])
        sweep = [NoiseSpec("white", 30.0, seed=5), NoiseSpec("white", 10.0, seed=5)]
        report = evaluate_corpus(manifest, methods=("hp",), noise_sweep=sweep)
        assert set(report.per_snr["hp"]) == {10.0, 30.0}
        assert report.per_method["hp"].trials == 4  # 2 levels x 2 orientations
        for rate in report.per_snr["hp"].values():
            assert 0.0 <= rate <= 1.0

    def test_orientations_agree(self, tmp_path):
        manifest = make_corpus(tmp_path, [
            ("a", 90.0, Polarity.POSITIVE, "speech"),
            ("b", 160.0, Polarity.NEGATIVE, "speech"),
            ("c", 220.0, Polarity.POSITIVE, "speech"),
        ])
        report = evaluate_corpus(manifest, methods=("hp", "reskew"),
                                 noise_sweep=[NoiseSpec("white", 20.0, seed=3)])
        assert not report.consistency_failures

    def test_unknown_method_rejected(self, tmp_path):
        manifest = make_corpus(tmp_path, [("pos1", 100.0, Polarity.POSITIVE, "speech")])
        with pytest.raises(InvalidInputError):
            evaluate_corpus(manifest, methods=("zcr",))


class TestRenderReport:
    @pytest.fixture()
    def report(self, tmp_path):
        manifest = make_corpus(tmp_path, [
            ("pos1", 100.0, Polarity.POSITIVE, "speech"),
            ("neg1", 150.0, Polarity.NEGATIVE, "speech"),
        ])
        return evaluate_corpus(manifest, methods=("hp", "reskew"))

    def test_table_columns(self, report):
        table = render_report(report, "table")
        assert "Corr. Polarity" in table
        assert "False Polarity" in table
        assert "% Correct" in table
        assert "hp" in table and "reskew" in table

    def test_json_round_trips(self, report):
        payload = json.loads(render_report(report, "json"))
        assert payload["corpus"] == "testcorpus"
        assert payload["per_method"]["hp"]["correct"] == 4
        assert len(payload["per_file"]) == 8

    def test_csv_row_count(self, report):
        lines = render_report(report, "csv").strip().splitlines()
        assert len(lines) == 1 + 2  # header + one row per method

    def test_csv_rows_include_snr(self, tmp_path):
        manifest = make_corpus(tmp_path, [("pos1", 100.0, Polarity.POSITIVE, "speech")])
        sweep = [NoiseSpec("white", 20.0, seed=1), NoiseSpec("white", 10.0, seed=1)]
        report = evaluate_corpus(manifest, methods=("hp",), noise_sweep=sweep)
        lines = render_report(report, "csv").strip().splitlines()
        assert len(lines) == 1 + 1 + 2  # header + method row + per-SNR rows

    def test_aggregation_matches_per_file(self, report):
        for m, tally in report.per_method.items():
            rows = [r for r in report.per_file if r.method == m]
            assert sum(r.correct for r in rows) == tally.correct
            assert len(rows) == tally.trials

    def test_unknown_format_rejected(self, report):
        with pytest.raises(InvalidInputError):
            render_report(report, "xml")


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        manifest = make_corpus(tmp_path, [
            ("pos1", 100.0, Polarity.POSITIVE, "speech"),
            ("neg1", 140.0, Polarity.NEGATIVE, "speech"),
        ])
        sweep = [NoiseSpec("white", 20.0, seed=9)]
        a = evaluate_corpus(manifest, methods=("hp", "reskew"), noise_sweep=sweep)
        b = evaluate_corpus(manifest, methods=("hp", "reskew"), noise_sweep=sweep)
        assert render_report(a, "csv") == render_report(b, "csv")
        assert render_report(a, "json") == render_report(b, "json")
