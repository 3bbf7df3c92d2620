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
from .harness import METHODS, evaluate_corpus, load_wav, parse_manifest, render_report, save_wav
from .synth import NoiseSpec, SynthSpec, generate_utterance
from .types import InvalidInputError, Polarity, UndefinedStatisticError

EX_OK = 0
EX_USAGE = 64
EX_DATA = 65
EX_IOERR = 74

_DECISION_EXIT = {Polarity.POSITIVE: 0, Polarity.NEGATIVE: 1, Polarity.INDETERMINATE: 2}


def _snr_levels(text: str) -> list[float]:
    try:
        levels = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        levels = []
    if not levels:
        raise argparse.ArgumentTypeError(f"expected comma-separated dB values, got {text!r}")
    return levels


def _method_list(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not methods or any(m not in METHODS for m in methods):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated subset of {','.join(METHODS)}, got {text!r}")
    return methods


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechpolarity", description="Polarity detection for speech and EGG recordings")
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="decide the polarity of one WAV file")
    p_detect.add_argument("file")
    p_detect.add_argument("--method", choices=(*METHODS, "both"), default="both")
    p_detect.add_argument("--json", action="store_true", help="machine-readable output")
    p_detect.set_defaults(run=_cmd_detect)

    p_eval = sub.add_parser("eval", help="evaluate a corpus manifest")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--methods", type=_method_list, default=tuple(METHODS),
                        help=f"comma-separated subset of {','.join(METHODS)}")
    p_eval.add_argument("--snr", type=_snr_levels,
                        help="comma-separated SNR levels in dB for a noise sweep")
    p_eval.add_argument("--noise", help="white (default), pink, or file:<path>; needs --snr")
    p_eval.add_argument("--seed", type=int, help="noise seed (default 0); needs --snr")
    p_eval.add_argument("--out", help="write report to .csv or .json (default: table to stdout)")
    p_eval.set_defaults(run=_cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic utterance of known polarity")
    p_synth.add_argument("--pitch", type=float, required=True)
    p_synth.add_argument("--duration", type=float, default=1.0)
    p_synth.add_argument("--rate", type=int, default=16000)
    p_synth.add_argument("--polarity", choices=("positive", "negative"), default="positive")
    p_synth.add_argument("--jitter", type=float, default=1.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(run=_cmd_synth)

    sub.add_parser("calibrate", help="re-derive the sign conventions from the synthetic oracle"
                   ).set_defaults(run=_cmd_calibrate)
    return parser


def _cmd_detect(args) -> int:
    signal = load_wav(args.file)
    methods = tuple(METHODS) if args.method == "both" else (args.method,)
    decisions = {m: METHODS[m](signal) for m in methods}
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
    manifest = parse_manifest(args.manifest)
    out = Path(args.out) if args.out else None
    fmt = out.suffix.lstrip(".").lower() if out else "table"
    if out and fmt not in ("csv", "json"):  # before any file is scored
        raise InvalidInputError(f"--out must end in .csv or .json, got {args.out!r}")
    if out and not out.parent.is_dir():
        raise FileNotFoundError(f"--out directory does not exist: {out.parent}")
    sweep = None
    if args.snr:
        sweep = [_parse_noise(args.noise or "white", snr, args.seed or 0) for snr in args.snr]
    report = evaluate_corpus(manifest, methods=args.methods, noise_sweep=sweep)
    if out:
        out.write_text(render_report(report, fmt), encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(render_report(report, fmt), end="")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        # argparse reads a value such as "-5,0" as an option: pass "--snr=-5,0"
        if argv[i - 1] == "--snr":
            argv[i - 1:i + 1] = [f"--snr={argv[i]}"]
    try:
        args = parser.parse_args(argv)
        if args.command == "eval" and args.snr is None and (
                args.noise is not None or args.seed is not None):
            parser.error("--noise and --seed only apply to a noise sweep: give --snr")
        return args.run(args)
    except SystemExit as exc:
        return EX_USAGE if exc.code == 2 else exc.code  # argparse exits 2 on a usage error
    except (InvalidInputError, UndefinedStatisticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_IOERR


if __name__ == "__main__":
    sys.exit(main())
