"""End-to-end CLI behaviour, including exit codes, and the README's CLI and API lists."""

import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import speechpolarity
from speechpolarity import Polarity, Signal, SynthSpec, generate_utterance, load_wav, save_wav
from speechpolarity.cli import _build_parser, main

FS = 16000
README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_not_a_wav_data_error(self, tmp_path, capsys):
        path = tmp_path / "notes.wav"
        path.write_text("not audio\n", encoding="utf-8")
        assert main(["detect", str(path)]) == 65
        assert "unreadable WAV" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main(["detect"]) == 64
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("usage: speechpolarity detect ")
        assert err[1] == ("speechpolarity detect: error: "
                          "the following arguments are required: file")

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: speechpolarity ")

    def test_config_flag_removed(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        cfg = tmp_path / "conf.txt"
        cfg.write_text("hp.min_votes = 5\n", encoding="utf-8")
        assert main(["detect", str(wav), "--config", str(cfg)]) == 64
        assert "unrecognized arguments: --config" in capsys.readouterr().err


class TestReadme:
    def test_readme_in_sync(self):
        text = README.read_text(encoding="utf-8")
        # every command of the CLI block parses
        block = text[text.index("## CLI"):].split("```")[1]
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("speechpolarity ")]
        assert len(commands) >= 5
        parser = _build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        # every name of the building-blocks list is exported, and every
        # exported function is named in the Library section
        para = text[text.index("The building blocks are exposed individually"):].split("\n\n")[0]
        names = re.findall(r"`(\w+)`", para)
        assert len(names) >= 15
        assert set(names) <= set(speechpolarity.__all__)
        library = set(re.findall(r"\w+", text[text.index("## Library"):text.index("## Notes")]))
        functions = {name for name in speechpolarity.__all__
                     if inspect.isfunction(getattr(speechpolarity, name))}
        assert functions - library == set()


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
        sa, sb = load_wav(a), load_wav(b)
        assert np.max(np.abs(sa.samples + sb.samples)) <= 2.0 / 32768

    def test_invalid_pitch_data_error(self, tmp_path):
        assert main(["synth", "--pitch", "20", "--out", str(tmp_path / "x.wav")]) == 65

    def test_duration_under_a_sample_data_error(self, tmp_path, capsys):
        # once an uncaught ValueError from the empty waveform's peak
        out = tmp_path / "t.wav"
        assert main(["synth", "--pitch", "120", "--duration", "0.00001", "--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert "duration_s" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("option,value,name", [
        ("--duration", "inf", "duration_s"),  # once an OverflowError
        ("--duration", "1e12", "duration_s"),  # once numpy's memory error
        ("--seed", "-1", "seed"),  # once numpy's ValueError
        ("--rate", "-5", "sample rate"),  # once reported as a pitch error
    ])
    def test_out_of_range_option_data_error(self, tmp_path, capsys, option, value, name):
        out = tmp_path / "t.wav"
        assert main(["synth", "--pitch", "120", option, value, "--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not out.exists()


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

    def test_empty_manifest_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text("# no entries\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest)]) == 65
        assert "manifest is empty" in capsys.readouterr().err

    def test_file_noise_sweep_table(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        noise = tmp_path / "babble.wav"
        save_wav(noise, Signal(0.1 * np.random.default_rng(8).standard_normal(FS // 2), FS))
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), "--noise", f"file:{noise}",
                     "--snr", "10,20"]) == 0
        out = capsys.readouterr().out.splitlines()
        block = out[out.index("") + 1:]
        assert block[0].split() == ["Error", "rate", "(%)", "10", "dB", "20", "dB"]
        assert [row.split()[0] for row in block[1:]] == ["hp", "reskew"]

    def test_missing_noise_file_io_error(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        ghost = tmp_path / "ghost.wav"
        assert main(["eval", "--manifest", str(manifest), "--noise", f"file:{ghost}",
                     "--snr", "10"]) == 74
        assert str(ghost) in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["abc", ",", ""])
    def test_non_numeric_snr_usage_error(self, tmp_path, capsys, snr):
        # "," and "" once parsed to no levels and ran no sweep, exiting 0
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), "--snr", snr]) == 64
        err = capsys.readouterr().err
        assert "--snr" in err and "Traceback" not in err

    @pytest.mark.parametrize("option", [["--noise", "pink"], ["--seed", "4"]],
                             ids=("noise", "seed"))
    def test_noise_option_without_snr_usage_error(self, tmp_path, capsys, option):
        # either option once left the clean report as it was, exiting 0
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), *option]) == 64
        captured = capsys.readouterr()
        assert "--snr" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_negative_seed_data_error(self, tmp_path, capsys):
        # once a ValueError from evaluate_corpus's SeedSequence
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), "--snr", "10", "--seed", "-1"]) == 65
        captured = capsys.readouterr()
        assert "seed" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("snr,levels", [("-5,0", {"-5", "0"}), ("-2.5,-10", {"-2.5", "-10"}),
                                            ("-5", {"-5"}), ("0,-5", {"-5", "0"})])
    def test_negative_snr_levels(self, tmp_path, snr, levels):
        # argparse once read "-5,0" after --snr as an option and exited 64
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        reports = []
        for form in (["--snr", snr], [f"--snr={snr}"]):
            out = tmp_path / "report.json"
            assert main(["eval", "--manifest", str(manifest), "--methods", "hp", *form,
                         "--out", str(out)]) == 0
            reports.append(out.read_text(encoding="utf-8"))
        assert reports[0] == reports[1]
        assert set(json.loads(reports[0])["per_snr"]["hp"]) == levels

    @pytest.mark.parametrize("methods", [",", "HP", "hp,bogus"])
    def test_bad_methods_usage_error(self, tmp_path, capsys, methods):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), "--methods", methods]) == 64
        err = capsys.readouterr().err
        assert "--methods" in err and "Traceback" not in err

    def test_empty_method_names_skipped(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), "--methods", "hp,,"]) == 0
        out = capsys.readouterr().out
        assert "\nhp " in out and "reskew" not in out

    def test_repeated_method_counted_once(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        outputs = []
        for methods in ("hp", "hp,hp"):
            out = tmp_path / f"{methods}.json"
            assert main(["eval", "--manifest", str(manifest), "--methods", methods,
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_config_flag_removed(self, tmp_path, capsys):
        wav = write_utt(tmp_path, "pos.wav", Polarity.POSITIVE)
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{wav.name},positive,speech\n", encoding="utf-8")
        cfg = tmp_path / "conf.txt"
        cfg.write_text("lp.order = 12\n", encoding="utf-8")
        assert main(["eval", "--manifest", str(manifest), "--config", str(cfg)]) == 64
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_bad_out_extension(self, tmp_path, capsys, monkeypatch):
        # the whole evaluation once ran before the suffix was checked
        def refuse(*args, **kwargs):
            raise AssertionError("evaluate_corpus ran for a report it cannot write")

        monkeypatch.setattr(speechpolarity.cli, "evaluate_corpus", refuse)
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("pos.wav,positive,speech\n", encoding="utf-8")
        out = tmp_path / "report.xml"
        assert main(["eval", "--manifest", str(manifest), "--snr", "0,10",
                     "--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert err == f"error: --out must end in .csv or .json, got {str(out)!r}\n"
        assert not out.exists()

    def test_out_into_missing_directory_io_error(self, tmp_path, capsys, monkeypatch):
        # the whole corpus was once scored before the write failed
        calls = []
        monkeypatch.setattr(speechpolarity.cli, "evaluate_corpus", lambda *a, **k: calls.append(a))
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("pos.wav,positive,speech\n", encoding="utf-8")
        missing = tmp_path / "nodir"
        assert main(["eval", "--manifest", str(manifest), "--out", str(missing / "r.csv")]) == 74
        assert calls == []
        assert str(missing) in capsys.readouterr().err


class TestCalibrate:
    def test_reports_shipped_conventions(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "vote_sign_for_positive = -1" in out
        assert "reskew statistic sign for positive = +1" in out
