"""Corpus evaluation: WAV ingestion, the double-orientation protocol, reports.

Every file is scored twice, as supplied and negated, against its manifest
label and the label's opposite; an indeterminate decision counts against
the method.  When an SNR sweep is requested the noise is mixed first and
the negated trial is the exact negation of the noisy waveform, so the
decision-antisymmetry of both detectors makes the two orientations succeed
or fail together; any violation is recorded as an internal-consistency
failure.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .hilbert_phase import HpConfig, detect_polarity_hp
from .reskew import LpConfig, detect_polarity_reskew
from .epochs import ZffConfig
from .synth import NoiseSpec, mix_noise
from .types import InvalidInputError, Polarity, Signal

# Method name -> detector(signal, zcfg, hcfg, lcfg).  The detectors are
# looked up by name at call time, so rebinding a module attribute reaches
# every caller.
METHODS = {
    "hp": lambda s, zcfg, hcfg, lcfg: detect_polarity_hp(s, zcfg=zcfg, hcfg=hcfg),
    "reskew": lambda s, zcfg, hcfg, lcfg: detect_polarity_reskew(s, cfg=lcfg),
}
KINDS = ("speech", "egg")

INT16_SCALE = 32768.0


def load_wav(path) -> Signal:
    """Read a mono PCM-16 or float-32 WAV file, normalized to [-1, 1]."""
    path = Path(path)
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"no such audio file: {path}") from None
    except ValueError as exc:
        raise InvalidInputError(f"{path}: unreadable WAV ({exc})") from None
    if data.ndim != 1:
        raise InvalidInputError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / INT16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    elif data.dtype == np.float64:
        samples = data
    else:
        raise InvalidInputError(f"{path}: unsupported sample format {data.dtype}; "
                                "use 16-bit PCM or 32-bit float")
    return Signal(samples, int(rate))


def save_wav(path, s: Signal) -> None:
    """Write a Signal as mono 16-bit PCM; samples are clipped to [-1, 1]."""
    scaled = np.clip(np.round(s.samples * INT16_SCALE), -32768, 32767).astype(np.int16)
    wavfile.write(Path(path), s.sample_rate_hz, scaled)


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    true_polarity: Polarity
    kind: str


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
            if e.kind not in KINDS:
                raise InvalidInputError(f"manifest kind must be speech or egg, got {e.kind!r}")
            if e.true_polarity not in (Polarity.POSITIVE, Polarity.NEGATIVE):
                raise InvalidInputError("manifest polarity must be positive or negative")


def parse_manifest(path, name: str | None = None) -> CorpusManifest:
    """Read a manifest file: one `path,polarity,kind` entry per line, # comments.

    Relative audio paths are resolved against the manifest's directory.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such manifest: {path}")
    base = path.parent
    entries = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise InvalidInputError(f"{path}:{lineno}: expected `path,polarity,kind`, got {raw!r}")
        wav = parts[0]
        resolved = wav if Path(wav).is_absolute() else str(base / wav)
        entries.append(ManifestEntry(resolved, Polarity.parse(parts[1]), parts[2].lower()))
    return CorpusManifest(name or path.stem, tuple(entries))


@dataclass
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
    path: str
    kind: str
    orientation: str  # original | negated
    snr_db: float | None
    method: str
    expected: str
    decision: str
    evidence: str
    correct: bool
    error: str | None = None


@dataclass
class EvalReport:
    name: str
    methods: tuple
    per_method: dict
    per_snr: dict | None
    per_file: list
    consistency_failures: list = field(default_factory=list)


def evaluate_corpus(manifest: CorpusManifest, methods=tuple(METHODS),
                    noise_sweep=None, zcfg: ZffConfig | None = None,
                    hcfg: HpConfig | None = None, lcfg: LpConfig | None = None) -> EvalReport:
    """Run the double-orientation protocol over a manifest.

    ``noise_sweep`` is an optional sequence of NoiseSpec; each trial is then
    repeated per SNR level with a noise realization seeded deterministically
    from (spec seed, file index, level index).  Per-file failures are
    recorded with an error marker and counted as indeterminate; the batch
    never aborts on a file.  A noise file that cannot be read or has zero
    energy raises before any file is scored.
    """
    methods = tuple(m for m in methods if m)
    for m in methods:
        if m not in METHODS:
            raise InvalidInputError(f"unknown method {m!r}; expected subset of {tuple(METHODS)}")
    if not manifest.entries and methods:
        raise InvalidInputError("manifest is empty")

    levels: list[NoiseSpec | None] = [None] if not noise_sweep else list(noise_sweep)
    for level in levels:
        if level is not None and level.kind == "file":
            noise = load_wav(level.path).samples
            if float(np.dot(noise, noise)) <= 0.0:
                raise InvalidInputError(f"{level.path}: noise source has zero energy")
    tallies = {m: MethodTally() for m in methods}
    per_snr: dict = {m: {} for m in methods} if noise_sweep else None
    snr_counts = {m: {} for m in methods}
    records: list[TrialRecord] = []
    consistency: list[str] = []

    for file_idx, entry in enumerate(manifest.entries):
        try:
            clean, load_error = load_wav(entry.path), None
        except Exception as exc:  # recorded, not raised
            clean, load_error = None, str(exc)

        for level_idx, level in enumerate(levels):
            snr = level.snr_db if level else None
            base, base_error = clean, load_error
            if clean is not None and level is not None:
                seed = int(np.random.SeedSequence((level.seed, file_idx, level_idx)).generate_state(1)[0])
                try:
                    base = mix_noise(clean, NoiseSpec(level.kind, level.snr_db, seed=seed, path=level.path))
                except InvalidInputError as exc:  # e.g. a silent file; recorded, not raised
                    base, base_error = None, str(exc)
            outcomes = {}
            for orientation, sig, expected in (
                    ("original", base, entry.true_polarity),
                    ("negated", None if base is None else base.negated(),
                     entry.true_polarity.flipped())):
                for m in methods:
                    decision, error = None, base_error
                    if sig is not None:
                        try:
                            decision = METHODS[m](sig, zcfg, hcfg, lcfg)
                        except Exception as exc:  # recorded, not raised
                            error = str(exc)
                    ok = decision is not None and decision.polarity is expected
                    if decision is None:
                        records.append(TrialRecord(entry.path, entry.kind, orientation, snr, m,
                                                   expected.value, "error", "-", False, error=error))
                    else:
                        records.append(TrialRecord(entry.path, entry.kind, orientation, snr, m,
                                                   expected.value, decision.polarity.value,
                                                   decision.evidence(), ok))
                    if ok:
                        tallies[m].correct += 1
                    elif decision is None or decision.polarity is Polarity.INDETERMINATE:
                        tallies[m].indeterminate += 1
                    else:
                        tallies[m].false += 1
                    outcomes.setdefault(m, []).append(ok)
                    if per_snr is not None:
                        bad, tot = snr_counts[m].get(snr, (0, 0))
                        snr_counts[m][snr] = (bad + (0 if ok else 1), tot + 1)
            for m, flags in outcomes.items():
                if len(flags) == 2 and flags[0] != flags[1]:
                    consistency.append(f"{entry.path} snr={snr} method={m}")

    if per_snr is not None:
        for m in methods:
            per_snr[m] = {snr: bad / tot for snr, (bad, tot) in sorted(snr_counts[m].items())}

    records.sort(key=lambda r: (r.path, -1.0 if r.snr_db is None else r.snr_db,
                                r.orientation, r.method))
    return EvalReport(manifest.name, methods, {m: tallies[m] for m in methods},
                      per_snr, records, consistency)


def _report_dict(report: EvalReport) -> dict:
    out = {
        "corpus": report.name,
        "methods": list(report.methods),
        "per_method": {
            m: {
                "correct": t.correct,
                "false": t.false,
                "indeterminate": t.indeterminate,
                "trials": t.trials,
                "percent_correct": round(t.percent_correct, 4),
                "error_rate": round(t.error_rate, 6),
            }
            for m, t in report.per_method.items()
        },
        "consistency_failures": list(report.consistency_failures),
    }
    if report.per_snr is not None:
        out["per_snr"] = {
            m: {f"{snr:g}": round(rate, 6) for snr, rate in levels.items()}
            for m, levels in report.per_snr.items()
        }
    out["per_file"] = [
        {
            "path": r.path,
            "kind": r.kind,
            "orientation": r.orientation,
            "snr_db": r.snr_db,
            "method": r.method,
            "expected": r.expected,
            "decision": r.decision,
            "evidence": r.evidence,
            "correct": r.correct,
            **({"error": r.error} if r.error else {}),
        }
        for r in report.per_file
    ]
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
