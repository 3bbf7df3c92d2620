"""Corpus evaluation: WAV ingestion, the double-orientation protocol, reports.

Every file is scored twice, as supplied and negated, against its manifest
label and the label's opposite; an indeterminate decision counts against
the method.  When an SNR sweep is requested the noise is mixed first and
the negated trial is the exact negation of the noisy waveform, so the
decision-antisymmetry of both detectors makes the two orientations succeed
or fail together; any violation is an internal-consistency failure.  The
trial loop only records one row per trial; every report figure (the
per-method tallies, the per-SNR error rates and the consistency failures,
each of which names its sweep level) is computed from those per-file rows.
"""

from __future__ import annotations

import io
import json
import struct
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .hilbert_phase import detect_polarity_hp
from .reskew import detect_polarity_reskew
from .synth import NoiseSpec, mix_noise
from .types import InvalidInputError, Polarity, Signal

# Lambdas look the detectors up at call time, so a rebound module attribute reaches every caller.
METHODS = {
    "hp": lambda s: detect_polarity_hp(s),
    "reskew": lambda s: detect_polarity_reskew(s),
}
KINDS = ("speech", "egg")

INT16_SCALE = 32768.0


def load_wav(path) -> Signal:
    """Read a mono PCM-16, float-32 or float-64 WAV file; PCM-16 is scaled to [-1, 1)."""
    path = Path(path)
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"no such audio file: {path}") from None
    except (ValueError, struct.error, ZeroDivisionError) as exc:  # a cut-short or 0-channel header
        raise InvalidInputError(f"{path}: unreadable WAV ({exc})") from None
    if data.ndim != 1:
        raise InvalidInputError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if data.dtype not in (np.int16, np.float32, np.float64):
        raise InvalidInputError(f"{path}: unsupported sample format {data.dtype}; "
                                "use 16-bit PCM, 32-bit float or 64-bit float")
    if data.dtype == np.int16:
        data = data / INT16_SCALE
    return Signal(data, rate)


def save_wav(path, s: Signal) -> None:
    """Write a Signal as mono 16-bit PCM; samples are clipped to [-1, 1]."""
    scaled = np.clip(np.round(s.samples * INT16_SCALE), -32768, 32767).astype(np.int16)
    wavfile.write(Path(path), s.sample_rate_hz, scaled)


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    true_polarity: Polarity
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"manifest kind must be speech or egg, got {self.kind!r}")
        if self.true_polarity not in (Polarity.POSITIVE, Polarity.NEGATIVE):
            raise InvalidInputError("manifest polarity must be positive or negative")


@dataclass(frozen=True)
class CorpusManifest:
    name: str
    entries: tuple

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.path in seen:
                raise InvalidInputError(f"duplicate manifest path: {e.path}")
            seen.add(e.path)


def parse_manifest(path) -> CorpusManifest:
    """Read a manifest file: one `path,polarity,kind` entry per line, # comments.

    The corpus is named after the file's stem; relative audio paths are
    resolved against the manifest's directory.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such manifest: {path}")
    base = path.parent
    entries = []
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: manifest is not UTF-8 ({exc})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise InvalidInputError(f"{path}:{lineno}: expected `path,polarity,kind`, got {raw!r}")
        wav = parts[0]
        resolved = wav if Path(wav).is_absolute() else str(base / wav)
        try:
            entries.append(ManifestEntry(resolved, Polarity.parse(parts[1]), parts[2].lower()))
        except InvalidInputError as exc:  # an unknown polarity or kind, named with its line
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
    return CorpusManifest(path.stem, tuple(entries))


@dataclass(frozen=True)
class MethodTally:
    correct: int = 0
    false: int = 0
    indeterminate: int = 0

    @property
    def trials(self) -> int:
        return self.correct + self.false + self.indeterminate

    @property
    def percent_correct(self) -> float:
        return 100.0 * self.correct / self.trials if self.trials else 0.0

    @property
    def error_rate(self) -> float:
        return (self.false + self.indeterminate) / self.trials if self.trials else 0.0


@dataclass(frozen=True)
class TrialRecord:
    """One trial's row; ``level`` is its index into the noise sweep, None without a sweep."""
    path: str
    kind: str
    orientation: str  # original | negated
    snr_db: float | None
    level: int | None
    method: str
    expected: str
    decision: str
    evidence: str
    correct: bool
    error: str | None = None


@dataclass
class EvalReport:
    name: str
    per_method: dict
    per_snr: dict | None
    per_file: list
    consistency_failures: list


def evaluate_corpus(manifest: CorpusManifest, methods=tuple(METHODS), noise_sweep=None) -> EvalReport:
    """Run the double-orientation protocol over a manifest.

    ``noise_sweep`` is an optional sequence of NoiseSpec; each trial is then
    repeated per SNR level with a noise realization seeded deterministically
    from (spec seed, file index, level index).  Per-file failures are
    recorded with an error marker and counted as indeterminate; the batch
    never aborts on a file.  A ``file`` noise source is read once per level;
    one that cannot be read or has zero energy raises before any file is scored.
    A method named more than once is run once.  Each consistency failure, an
    original row whose twin negated row differs in ``correct``, reads
    ``"<path> snr=<snr_db> level=<level> method=<method>"`` (``None`` for both
    without a sweep).  ``per_snr`` pools every level at one SNR.
    """
    methods = tuple(dict.fromkeys(methods))
    for m in methods:
        if m not in METHODS:
            raise InvalidInputError(f"unknown method {m!r}; expected subset of {tuple(METHODS)}")
    if not manifest.entries and methods:
        raise InvalidInputError("manifest is empty")

    levels: list[NoiseSpec | None] = [None] if not noise_sweep else list(noise_sweep)
    noise_files = {}  # level index -> its `file` noise source
    for level_idx, level in enumerate(levels):
        if level is not None and level.kind == "file":
            noise = load_wav(level.path)
            if float(np.dot(noise.samples, noise.samples)) <= 0.0:
                raise InvalidInputError(f"{level.path}: noise source has zero energy")
            noise_files[level_idx] = noise
    records: list[TrialRecord] = []

    for file_idx, entry in enumerate(manifest.entries):
        try:
            clean, load_error = load_wav(entry.path), None
        except Exception as exc:  # recorded, not raised
            clean, load_error = None, str(exc)

        for level_idx, level in enumerate(levels):
            snr, swept = (level.snr_db, level_idx) if level else (None, None)
            base, base_error = clean, load_error
            if clean is not None and level is not None:
                seed = int(np.random.SeedSequence((level.seed, file_idx, level_idx)).generate_state(1)[0])
                try:
                    base = mix_noise(clean, replace(level, seed=seed), noise=noise_files.get(level_idx))
                except InvalidInputError as exc:  # e.g. a silent file or another rate; recorded
                    base, base_error = None, str(exc)
            for orientation, sig, expected in (
                    ("original", base, entry.true_polarity),
                    ("negated", None if base is None else base.negated(),
                     entry.true_polarity.flipped())):
                for m in methods:
                    decision, error = None, base_error
                    if sig is not None:
                        try:
                            decision = METHODS[m](sig)
                        except Exception as exc:  # recorded, not raised
                            error = str(exc)
                    records.append(TrialRecord(
                        entry.path, entry.kind, orientation, snr, swept, m, expected.value,
                        "error" if decision is None else decision.polarity.value,
                        "-" if decision is None else decision.evidence(),
                        decision is not None and decision.polarity is expected, error))

    consistency = [f"{a.path} snr={a.snr_db} level={a.level} method={a.method}"
                   for a, b in zip([r for r in records if r.orientation == "original"],
                                   [r for r in records if r.orientation == "negated"])
                   if a.correct != b.correct]
    by_method = {m: [r for r in records if r.method == m] for m in methods}
    per_method = {m: _tally(rows) for m, rows in by_method.items()}
    per_snr = None
    if noise_sweep:
        per_snr = {m: {snr: _tally([r for r in rows if r.snr_db == snr]).error_rate
                       for snr in sorted({r.snr_db for r in rows})}
                   for m, rows in by_method.items()}
    records.sort(key=lambda r: (r.path, -1.0 if r.snr_db is None else r.snr_db,
                                -1 if r.level is None else r.level, r.orientation, r.method))
    return EvalReport(manifest.name, per_method, per_snr, records, consistency)


def _outcome(r: TrialRecord) -> str:
    """The MethodTally field a trial counts towards."""
    if r.correct:
        return "correct"
    return "indeterminate" if r.decision in ("error", "indeterminate") else "false"


def _tally(rows: list[TrialRecord]) -> MethodTally:
    return MethodTally(**Counter(map(_outcome, rows)))


def _report_dict(report: EvalReport) -> dict:
    out = {
        "corpus": report.name,
        "methods": list(report.per_method),
        "per_method": {
            m: {**asdict(t), "trials": t.trials, "percent_correct": round(t.percent_correct, 4),
                "error_rate": round(t.error_rate, 6)}
            for m, t in report.per_method.items()
        },
        "consistency_failures": list(report.consistency_failures),
    }
    if report.per_snr is not None:
        out["per_snr"] = {
            m: {f"{snr:g}": round(rate, 6) for snr, rate in levels.items()}
            for m, levels in report.per_snr.items()
        }
    out["per_file"] = [{k: v for k, v in asdict(r).items() if k != "error" or v}
                       for r in report.per_file]
    return out


def render_report(report: EvalReport, fmt: str = "table") -> str:
    """Serialize a report as `csv`, `json`, or a human-readable `table`."""
    if fmt == "json":
        return json.dumps(_report_dict(report), indent=2) + "\n"

    if fmt == "csv":
        buf = io.StringIO()
        buf.write("corpus,method,snr_db,trials,correct,false,indeterminate,"
                  "percent_correct,error_rate\n")
        for m, t in report.per_method.items():
            buf.write(f"{report.name},{m},,{t.trials},{t.correct},{t.false},"
                      f"{t.indeterminate},{t.percent_correct:.4f},{t.error_rate:.6f}\n")
        if report.per_snr:
            for m, levels in report.per_snr.items():
                for snr, rate in levels.items():
                    buf.write(f"{report.name},{m},{snr:g},,,,,,{rate:.6f}\n")
        return buf.getvalue()

    if fmt == "table":
        lines = [f"Corpus: {report.name}"]
        lines.append(f"{'Method':<10}{'Corr. Polarity':>16}{'False Polarity':>16}{'% Correct':>12}")
        for m, t in report.per_method.items():
            lines.append(f"{m:<10}{t.correct:>16}{t.false + t.indeterminate:>16}"
                         f"{t.percent_correct:>12.2f}")
        if report.per_snr:
            snrs = sorted({snr for levels in report.per_snr.values() for snr in levels})
            header = "Error rate (%)" + "".join(f"{f'{snr:g} dB':>10}" for snr in snrs)
            lines.append("")
            lines.append(header)
            for m, levels in report.per_snr.items():
                lines.append(f"{m:<14}" + "".join(f"{100.0 * levels.get(snr, 0.0):>10.3f}" for snr in snrs))
        if report.consistency_failures:
            lines.append("")
            lines.append(f"internal-consistency failures: {len(report.consistency_failures)}")
        return "\n".join(lines) + "\n"

    raise InvalidInputError(f"unknown report format {fmt!r}")
