"""End-to-end CLI behaviour, including exit codes and config overrides."""

import json

import pytest

from speechpolarity import Polarity, SynthSpec, generate_utterance, load_wav, save_wav
from speechpolarity.cli import main

FS = 16000


def write_utt(tmp_path, name, polarity, pitch=120.0, seed=1):
    path = tmp_path / name
    spec = SynthSpec(pitch_hz=pitch, duration_s=0.6, sample_rate_hz=FS,
                     polarity=polarity, seed=seed)
    save_wav(path, generate_utterance(spec))
    return path


class TestDetect:
    def test_positive_exit_code(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        assert main(["detect", str(wav), "--method", "hp"]) == 0
        assert "positive" in capsys.readouterr().out

    def test_negative_exit_code(self, tmp_path):
        wav = write_utt(tmp_path, "neg.wav", Polarity.NEGATIVE)
        assert main(["detect", str(wav), "--method", "hp"]) == 1

    def test_indeterminate_exit_code(self, tmp_path):
        import numpy as np
        from speechpolarity import Signal
        path = tmp_path / "silence.wav"
        save_wav(path, Signal(np.zeros(FS) + 1e-9, FS))
        assert main(["detect", str(path), "--method", "hp"]) == 2

    def test_both_methods_json(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        assert main(["detect", str(wav), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["decisions"]) == {"hp", "reskew"}
        assert payload["decisions"]["hp"]["polarity"] == "positive"

    def test_missing_file_io_error(self, tmp_path):
        assert main(["detect", str(tmp_path / "ghost.wav"), "--method", "hp"]) == 74

    def test_usage_error(self):
        assert main(["detect"]) == 64

    def test_config_override(self, tmp_path):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        cfg = tmp_path / "conf.txt"
        # more votes than a 0.6 s utterance has anchors: the decision must abstain
        cfg.write_text("hp.min_votes = 1000\n", encoding="utf-8")
        assert main(["detect", str(wav), "--method", "hp", "--config", str(cfg)]) == 2

    def test_bad_config_data_error(self, tmp_path):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        cfg = tmp_path / "conf.txt"
        cfg.write_text("hp.not_a_field = 1\n", encoding="utf-8")
        assert main(["detect", str(wav), "--config", str(cfg)]) == 65

    @pytest.mark.parametrize("line", ["zff.trend_passes = 2.5", "lp.order = 8.5",
                                      "hp.min_votes = 2.5"])
    def test_non_integer_config_data_error(self, tmp_path, line):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        cfg = tmp_path / "conf.txt"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["detect", str(wav), "--config", str(cfg)]) == 65


class TestSynth:
    def test_writes_wav(self, tmp_path, capsys):
        out = tmp_path / "utt.wav"
        code = main(["synth", "--pitch", "100", "--duration", "0.5", "--rate", "16000",
                     "--polarity", "positive", "--seed", "7", "--out", str(out)])
        assert code == 0
        s = load_wav(out)
        assert s.sample_rate_hz == FS
        assert len(s) == 8000

    def test_polarity_pair_negates(self, tmp_path):
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        main(["synth", "--pitch", "100", "--duration", "0.4", "--seed", "7", "--out", str(a)])
        main(["synth", "--pitch", "100", "--duration", "0.4", "--seed", "7",
              "--polarity", "negative", "--out", str(b)])
        import numpy as np
        sa, sb = load_wav(a), load_wav(b)
        assert np.max(np.abs(sa.samples + sb.samples)) <= 2.0 / 32768

    def test_invalid_pitch_data_error(self, tmp_path):
        assert main(["synth", "--pitch", "20", "--out", str(tmp_path / "x.wav")]) == 65


class TestEval:
    def test_eval_to_csv_and_json(self, tmp_path, capsys):
        wav_pos = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE, pitch=100.0)
        wav_neg = write_utt(tmp_path, "neg.wav", Polarity.NEGATIVE, pitch=150.0, seed=2)
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(f"{wav_pos.name},positive,speech\n{wav_neg.name},negative,speech\n",
                            encoding="utf-8")
        out_csv = tmp_path / "report.csv"
        assert main(["eval", "--manifest", str(manifest), "--methods", "hp",
                     "--out", str(out_csv)]) == 0
        text = out_csv.read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("corpus,method")
        assert ",hp," in text

        out_json = tmp_path / "report.json"
        assert main(["eval", "--manifest", str(manifest), "--methods", "hp,reskew",
                     "--snr", "30,20", "--noise", "white", "--seed", "4",
                     "--out", str(out_json)]) == 0
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert set(payload["per_snr"]["hp"]) == {"20", "30"}

    def test_eval_table_to_stdout(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), "--methods", "hp"]) == 0
        assert "Corr. Polarity" in capsys.readouterr().out

    def test_missing_manifest_io_error(self, tmp_path):
        assert main(["eval", "--manifest", str(tmp_path / "ghost.txt")]) == 74

    def test_non_numeric_snr_usage_error(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), "--snr", "abc"]) == 64
        err = capsys.readouterr().err
        assert "--snr" in err and "Traceback" not in err

    def test_bad_out_extension(self, tmp_path):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), "--out",
                     str(tmp_path / "report.xml")]) == 65


class TestCalibrate:
    def test_reports_shipped_conventions(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "vote_sign_for_positive = -1" in out
        assert "reskew statistic sign for positive = +1" in out
