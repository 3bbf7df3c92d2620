"""WAV I/O, manifest parsing, the evaluation protocol, and report rendering."""

import dataclasses
import itertools
import json
import zlib

import numpy as np
import pytest
from scipy.io import wavfile

from speechpolarity import harness
from speechpolarity import (CorpusManifest, InvalidInputError, ManifestEntry, NoiseSpec,
                            Polarity, PolarityDecision, Signal, SynthSpec, TrialRecord,
                            evaluate_corpus, generate_utterance, load_wav, parse_manifest,
                            render_report, save_wav)
from speechpolarity.cli import main

FS = 16000


def make_corpus(tmp_path, entries):
    """entries: list of (name, pitch, polarity, kind); returns a manifest."""
    manifest_entries = []
    for name, pitch, polarity, kind in entries:
        spec = SynthSpec(pitch_hz=pitch, duration_s=0.6, sample_rate_hz=FS,
                         polarity=polarity, seed=zlib.crc32(name.encode()) % 100000)
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
        assert s.samples.tobytes() == data.astype(np.float64).tobytes()

    def test_float64_read_as_is(self, tmp_path):
        path = tmp_path / "f64.wav"
        data = np.linspace(-1.5, 1.5, 101) / 3.0
        wavfile.write(path, FS, data)
        s = load_wav(path)
        assert s.sample_rate_hz == FS
        assert s.samples.tobytes() == data.tobytes()

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        wavfile.write(path, FS, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(InvalidInputError, match="mono"):
            load_wav(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError, match="missing.wav"):
            load_wav("/nonexistent/missing.wav")

    @staticmethod
    def malformed(tmp_path, cut):
        """A PCM-16 WAV cut to ``cut`` bytes, or with 0 channels in its header."""
        path = tmp_path / "bad.wav"
        wavfile.write(path, FS, np.arange(-800, 800, dtype=np.int16))
        data = bytearray(path.read_bytes())
        if cut == "0-channel":
            data[22:24] = b"\0\0"
        else:
            del data[cut:]
        path.write_bytes(bytes(data))
        return path

    # the 20- and 40-byte cuts raised struct.error, the 0-channel header ZeroDivisionError
    @pytest.mark.parametrize("cut", (12, 20, 36, 40, "0-channel"))
    def test_malformed_header_rejected(self, tmp_path, cut):
        path = self.malformed(tmp_path, cut)
        with pytest.raises(InvalidInputError, match="unreadable WAV") as info:
            load_wav(path)
        assert str(path) in str(info.value)

    def test_cut_short_header_is_a_data_error(self, tmp_path, capsys):
        assert main(["detect", str(self.malformed(tmp_path, 40))]) == 65
        err = capsys.readouterr().err
        assert "unreadable WAV" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("absolute", (False, True), ids=("relative", "absolute"))
    def test_byte_order_mark_ignored(self, tmp_path, absolute):
        # the mark once became part of the first path, so its file was "missing"
        wav = tmp_path / "a.wav"
        save_wav(wav, generate_utterance(SynthSpec(pitch_hz=100.0, duration_s=0.4, seed=1)))
        manifest = tmp_path / "corpus.txt"
        listed = str(wav) if absolute else "a.wav"
        manifest.write_text(f"{listed},positive,speech\n", encoding="utf-8-sig")
        assert manifest.read_bytes().startswith(b"\xef\xbb\xbf")
        parsed = parse_manifest(manifest)
        assert [e.path for e in parsed.entries] == [str(wav)]
        report = evaluate_corpus(parsed)
        assert len(report.per_file) == 4
        assert not any(r.error or r.decision == "error" for r in report.per_file)

    @pytest.mark.parametrize("line", ("only_one_field", "b.wav,postive,speech", "b.wav,negative,sppech"),
                             ids=("field-count", "polarity", "kind"))
    def test_bad_line_rejected(self, tmp_path, line):
        # the polarity and kind errors once named neither the manifest nor the line
        manifest = tmp_path / "bad.txt"
        manifest.write_text(f"a.wav,positive,speech\n{line}\n", encoding="utf-8")
        with pytest.raises(InvalidInputError) as info:
            parse_manifest(manifest)
        assert f"{manifest}:2:" in str(info.value)

    def test_not_utf8_rejected(self, tmp_path, capsys):
        # a UnicodeDecodeError once escaped ``eval``
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(bytes.fromhex("fffe00626164"))
        with pytest.raises(InvalidInputError, match="not UTF-8") as info:
            parse_manifest(manifest)
        assert str(manifest) in str(info.value)
        assert main(["eval", "--manifest", str(manifest)]) == 65
        assert "Traceback" not in capsys.readouterr().err

    def test_duplicate_paths_rejected(self):
        e = ManifestEntry("x.wav", Polarity.POSITIVE, "speech")
        with pytest.raises(InvalidInputError):
            CorpusManifest("dup", (e, e))

    @pytest.mark.parametrize("polarity,kind,match", [
        (Polarity.POSITIVE, "other", "kind"), (Polarity.INDETERMINATE, "speech", "polarity")])
    def test_unknown_kind_rejected(self, polarity, kind, match):
        with pytest.raises(InvalidInputError, match=match):
            CorpusManifest("k", (ManifestEntry("x.wav", polarity, kind),))


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

    def test_noise_file_at_another_rate_gives_error_rows(self, tmp_path):
        # the 16 kHz noise fits the 16 kHz file only; the 8 kHz file's trials are
        # error rows and the batch goes on
        noise = tmp_path / "noise16k.wav"
        rng = np.random.default_rng(7)
        wavfile.write(noise, 16000, (3000 * rng.standard_normal(16000)).astype(np.int16))
        entries = []
        for name, fs in (("narrow", 8000), ("wide", 16000)):
            path = tmp_path / f"{name}.wav"
            save_wav(path, generate_utterance(SynthSpec(pitch_hz=120.0, duration_s=0.6,
                                                        sample_rate_hz=fs, seed=fs)))
            entries.append(ManifestEntry(str(path), Polarity.POSITIVE, "speech"))
        sweep = [NoiseSpec("file", snr, seed=3, path=str(noise)) for snr in (20.0, 10.0)]
        report = evaluate_corpus(CorpusManifest("rates", tuple(entries)),
                                 methods=("hp", "reskew"), noise_sweep=sweep)
        assert len(report.per_file) == 16  # 2 files x 2 levels x 2 orientations x 2 methods
        for r in report.per_file:
            if r.path.endswith("narrow.wav"):
                assert r.decision == "error" and "16000 Hz" in r.error
            else:
                assert r.decision != "error" and r.error is None

    def test_noise_file_read_once_per_level(self, tmp_path, monkeypatch):
        noise_path = tmp_path / "noise.wav"
        rng = np.random.default_rng(4)
        wavfile.write(noise_path, FS, (3000 * rng.standard_normal(FS // 2)).astype(np.int16))
        manifest = make_corpus(tmp_path, [
            ("a", 100.0, Polarity.POSITIVE, "speech"),
            ("b", 150.0, Polarity.NEGATIVE, "speech"),
            ("c", 210.0, Polarity.POSITIVE, "speech"),
        ])
        sweep = [NoiseSpec("file", snr, seed=2, path=str(noise_path)) for snr in (20.0, 10.0, 5.0)]
        reads = []

        def counting_load_wav(path):
            reads.append(str(path))
            return load_wav(path)

        def run():
            reads.clear()
            report = evaluate_corpus(manifest, methods=("hp", "reskew"), noise_sweep=sweep)
            return reads.count(str(noise_path)), render_report(report, "json"), render_report(report, "csv")

        monkeypatch.setattr(harness, "load_wav", counting_load_wav)
        noise_reads, json_out, csv_out = run()
        assert noise_reads <= 3
        # reference: the file is read again for every file and level
        mix_noise = harness.mix_noise
        monkeypatch.setattr(harness, "mix_noise", lambda s, spec, noise=None: mix_noise(
            s, spec, noise=harness.load_wav(spec.path)))
        ref_reads, ref_json, ref_csv = run()
        assert ref_reads == 12  # 3 checks + 3 files x 3 levels
        assert json_out == ref_json and csv_out == ref_csv

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

    def test_empty_method_name_rejected(self):
        # an empty name was once dropped, and the report came back empty
        manifest = CorpusManifest("c", (ManifestEntry("a.wav", Polarity.POSITIVE, "speech"),))
        with pytest.raises(InvalidInputError, match="unknown method ''"):
            evaluate_corpus(manifest, methods=("",))


class TestMethodRegistry:
    def test_detectors_looked_up_at_call_time(self, tmp_path, monkeypatch, capsys):
        # METHODS must reach a detector rebound on the harness module, as a tracer rebinds it
        calls = []

        def stub(name, decision):
            def detect(s):
                calls.append(name)
                return decision
            return detect

        monkeypatch.setattr(harness, "detect_polarity_hp", stub("hp", PolarityDecision(
            Polarity.POSITIVE, negative_votes=9, anchors_used=9)))
        monkeypatch.setattr(harness, "detect_polarity_reskew", stub("reskew", PolarityDecision(
            Polarity.NEGATIVE, statistic=-0.5)))
        manifest = make_corpus(tmp_path, [("pos1", 100.0, Polarity.POSITIVE, "speech")])

        report = evaluate_corpus(manifest)
        assert calls == ["hp", "reskew", "hp", "reskew"]
        assert {(r.method, r.orientation, r.evidence) for r in report.per_file} == {
            ("hp", "original", "votes +0/-9 anchors=9"), ("hp", "negated", "votes +0/-9 anchors=9"),
            ("reskew", "original", "statistic=-0.5"), ("reskew", "negated", "statistic=-0.5")}

        calls.clear()
        assert main(["detect", manifest.entries[0].path]) == 0
        assert calls == ["hp", "reskew"]
        assert capsys.readouterr().out.splitlines() == [
            "hp: positive (votes +0/-9 anchors=9)", "reskew: negative (statistic=-0.5)"]


POS, NEG, IND = Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.INDETERMINATE


def cycling_stub(answers):
    """A detector that returns the given polarities in turn; None raises instead."""
    turn = itertools.cycle(answers)

    def detect(s):
        polarity = next(turn)
        if polarity is None:
            raise RuntimeError("stub failure")
        return PolarityDecision(polarity, positive_votes=1, anchors_used=1)
    return detect


class TestConsistencyFailures:
    @pytest.fixture()
    def report(self, tmp_path, monkeypatch):
        # Odd cycle lengths, so consecutive (file, level) blocks see different answer pairs.
        monkeypatch.setattr(harness, "detect_polarity_hp", cycling_stub((POS, NEG, IND, None, NEG)))
        monkeypatch.setattr(harness, "detect_polarity_reskew", cycling_stub((NEG, POS, None)))
        corpus = make_corpus(tmp_path, [
            ("c", 100.0, Polarity.POSITIVE, "speech"),
            ("a", 150.0, Polarity.NEGATIVE, "egg"),
            ("b", 210.0, Polarity.POSITIVE, "speech"),
        ])
        ghost = ManifestEntry(str(tmp_path / "ghost.wav"), Polarity.POSITIVE, "speech")
        entries = corpus.entries[:2] + (ghost,) + corpus.entries[2:]  # not sorted by path
        sweep = [NoiseSpec("white", snr, seed=6) for snr in (20.0, 5.0, 20.0)]
        return evaluate_corpus(CorpusManifest("stubbed", entries), noise_sweep=sweep)

    def test_failures_in_manifest_sweep_method_order(self, report, tmp_path):
        assert report.consistency_failures == [
            f"{tmp_path / name}.wav snr={snr} level={level} method={m}" for name, snr, level, m in (
                ("c", 5.0, 1, "reskew"), ("c", 20.0, 2, "reskew"), ("a", 20.0, 0, "hp"),
                ("b", 5.0, 1, "reskew"), ("b", 20.0, 2, "reskew"))]

    def test_tallies(self, report):
        # (correct, false, indeterminate); the missing file adds 6 indeterminate trials per method
        tallies = {m: (t.correct, t.false, t.indeterminate) for m, t in report.per_method.items()}
        assert tallies == {"hp": (3, 8, 13), "reskew": (6, 6, 12)}

    def test_per_snr(self, report):
        assert report.per_snr == {"hp": {5.0: 1.0, 20.0: 0.8125}, "reskew": {5.0: 0.75, 20.0: 0.75}}
        assert [list(levels) for levels in report.per_snr.values()] == [[5.0, 20.0], [5.0, 20.0]]

    def test_table_counts_failures(self, report):
        table = render_report(report, "table").splitlines()
        assert table[-2:] == ["", "internal-consistency failures: 5"]
        assert table[-5:-2] == ["Error rate (%)      5 dB     20 dB",
                                "hp               100.000    81.250",
                                "reskew            75.000    75.000"]

    def test_json_rows_follow_record_fields(self, report):
        names = [f.name for f in dataclasses.fields(TrialRecord)]
        rows = json.loads(render_report(report, "json"))["per_file"]
        assert {row["decision"] for row in rows} == {"positive", "negative", "indeterminate", "error"}
        for row in rows:
            assert list(row) == (names if row["decision"] == "error" else names[:-1])

    def test_rows_carry_sweep_level(self, report):
        # the two 20 dB levels' rows were once told apart by nothing
        assert {r.level for r in report.per_file if r.snr_db == 20.0} == {0, 2}
        assert {r.level for r in report.per_file if r.snr_db == 5.0} == {1}
        keys = [(r.path, r.level, r.orientation, r.method) for r in report.per_file]
        assert len(set(keys)) == len(keys)
        rows = json.loads(render_report(report, "json"))["per_file"]
        assert [row["level"] for row in rows] == [r.level for r in report.per_file]


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
        table = render_report(report, "table").splitlines()
        assert table[-3:] == ["", "Error rate (%)     10 dB     20 dB",
                              f"hp            {100 * report.per_snr['hp'][10.0]:>10.3f}"
                              f"{100 * report.per_snr['hp'][20.0]:>10.3f}"]

    def test_rows_without_sweep_have_no_level(self, report):
        assert {r.level for r in report.per_file} == {None}

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
