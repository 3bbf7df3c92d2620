"""Command-line interface: detect, eval, synth, calibrate.

Exit codes: 0 success, 64 usage error, 65 data error, 74 I/O error.  When
`detect` runs a single method the exit code reports the decision instead:
0 positive, 1 negative, 2 indeterminate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .calibrate import calibrate
from .config import build_configs, parse_config_file
from .harness import METHODS, evaluate_corpus, load_wav, parse_manifest, render_report, save_wav
from .synth import NoiseSpec, SynthSpec, generate_utterance
from .types import InvalidInputError, Polarity, UndefinedStatisticError

EX_OK = 0
EX_USAGE = 64
EX_DATA = 65
EX_IOERR = 74

_DECISION_EXIT = {Polarity.POSITIVE: 0, Polarity.NEGATIVE: 1, Polarity.INDETERMINATE: 2}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _snr_levels(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated dB values, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="speechpolarity",
                     description="Polarity detection for speech and EGG recordings")
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="decide the polarity of one WAV file")
    p_detect.add_argument("file")
    p_detect.add_argument("--method", choices=(*METHODS, "both"), default="both")
    p_detect.add_argument("--json", action="store_true", help="machine-readable output")
    p_detect.add_argument("--config", help="key = value config file")

    p_eval = sub.add_parser("eval", help="evaluate a corpus manifest")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--methods", default=",".join(METHODS),
                        help=f"comma-separated subset of {','.join(METHODS)}")
    p_eval.add_argument("--snr", type=_snr_levels,
                        help="comma-separated SNR levels in dB for a noise sweep")
    p_eval.add_argument("--noise", default="white", help="white, pink, or file:<path>")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", help="write report to .csv or .json (default: table to stdout)")
    p_eval.add_argument("--config", help="key = value config file")

    p_synth = sub.add_parser("synth", help="generate a synthetic utterance of known polarity")
    p_synth.add_argument("--pitch", type=float, required=True)
    p_synth.add_argument("--duration", type=float, default=1.0)
    p_synth.add_argument("--rate", type=int, default=16000)
    p_synth.add_argument("--polarity", choices=("positive", "negative"), default="positive")
    p_synth.add_argument("--jitter", type=float, default=1.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)

    sub.add_parser("calibrate", help="re-derive the sign conventions from the synthetic oracle")
    return parser


def _load_configs(path: str | None):
    overrides = parse_config_file(path) if path else None
    return build_configs(overrides)


def _cmd_detect(args) -> int:
    zcfg, hcfg, lcfg = _load_configs(args.config)
    signal = load_wav(args.file)
    methods = tuple(METHODS) if args.method == "both" else (args.method,)
    decisions = {m: METHODS[m](signal, zcfg, hcfg, lcfg) for m in methods}
    if args.json:
        payload = {
            "file": args.file,
            "decisions": {
                m: {"polarity": d.polarity.value, "evidence": d.evidence()}
                for m, d in decisions.items()
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for m, d in decisions.items():
            print(f"{m}: {d.polarity.value} ({d.evidence()})")
    if len(methods) == 1:
        return _DECISION_EXIT[decisions[methods[0]].polarity]
    return EX_OK


def _parse_noise(noise_arg: str, snr_db: float, seed: int) -> NoiseSpec:
    if noise_arg.startswith("file:"):
        return NoiseSpec("file", snr_db, seed=seed, path=noise_arg[5:])
    return NoiseSpec(noise_arg, snr_db, seed=seed)


def _cmd_eval(args) -> int:
    zcfg, hcfg, lcfg = _load_configs(args.config)
    manifest = parse_manifest(args.manifest)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    sweep = None
    if args.snr:
        sweep = [_parse_noise(args.noise, snr, args.seed) for snr in args.snr]
    report = evaluate_corpus(manifest, methods=methods, noise_sweep=sweep,
                             zcfg=zcfg, hcfg=hcfg, lcfg=lcfg)
    if args.out:
        out = Path(args.out)
        fmt = out.suffix.lstrip(".").lower()
        if fmt not in ("csv", "json"):
            raise InvalidInputError(f"--out must end in .csv or .json, got {args.out!r}")
        out.write_text(render_report(report, fmt), encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(render_report(report, "table"), end="")
    return EX_OK


def _cmd_synth(args) -> int:
    spec = SynthSpec(pitch_hz=args.pitch, duration_s=args.duration, sample_rate_hz=args.rate,
                     polarity=Polarity.parse(args.polarity), jitter_pct=args.jitter,
                     seed=args.seed)
    save_wav(args.out, generate_utterance(spec))
    print(f"wrote {args.out}")
    return EX_OK


def _cmd_calibrate(_args) -> int:
    result = calibrate()
    print(f"vote_sign_for_positive = {result.vote_sign_for_positive:+d} "
          f"(vote agreement {100 * result.vote_agreement:.1f}%)")
    print(f"reskew statistic sign for positive = {result.reskew_sign_for_positive:+d} "
          f"(agreement {100 * result.statistic_agreement:.1f}%)")
    return EX_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "detect":
            return _cmd_detect(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_calibrate(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    except (InvalidInputError, UndefinedStatisticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_IOERR


if __name__ == "__main__":
    sys.exit(main())
