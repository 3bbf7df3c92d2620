"""Seeded inputs and timed operations for the three benchmark workloads.

Every workload is a list of operations run in rounds by one caller (a
closed loop).  The seed only picks polarities, jitter and noise
realisations; sample rates, lengths, pitches and formants follow a fixed
pattern, so the work per round is the same for every seed and runs with
different seeds can be compared.

The package is reached only through its public names, looked up on the
``speechpolarity`` module at call time so that the tracer's rebinding is
seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.io import wavfile

import speechpolarity as sp

METHODS = ("hp", "reskew")
RATES = (8000, 16000, 48000)

# The A5 acceptance grid: 10 pitches x 5 formant sets.  (265 Hz, F1 530) and
# (300 Hz, F1 300) are the cells where hp fails today; they stay in.
PITCHES = (80.0, 95.0, 110.0, 130.0, 150.0, 175.0, 200.0, 230.0, 265.0, 300.0)
FORMANT_SETS = (
    ((700.0, 80.0), (1220.0, 100.0), (2600.0, 120.0)),
    ((530.0, 70.0), (1840.0, 100.0), (2480.0, 140.0)),
    ((300.0, 60.0), (2200.0, 100.0), (3000.0, 150.0)),
    ((570.0, 70.0), (840.0, 90.0), (2410.0, 130.0)),
    ((440.0, 60.0), (1020.0, 90.0), (2240.0, 140.0)),
)
# (noise kind, SNR dB) cycled over the short utterances; None is clean.
SHORT_CONDITIONS = (None, ("white", 30.0), ("pink", 20.0), ("white", 10.0), ("pink", 5.0))
SHORT_ANTISYMMETRY_CHECKS = 24

# Long files: (rate, samples): 60 s at 16 kHz, and 20 s at 48 kHz with a
# length of 13 x 73,847, which the FFT handles badly.  The 48 kHz file is
# not 60 s because one hp call on it would take 6-8 s; a run then holds only
# two repeats of it, and host slow spells spread the results by up to 20%.
LONG_FILES = ((16000, 960_000), (48000, 960_011))
LONG_SEGMENT_S = (1.2, 0.8, 2.0, 1.5, 0.6, 1.0)
LONG_PAUSE_S = (0.15, 0.3, 0.05, 0.25)
LONG_SNR_DB = 30.0

# Eval sweep: file i has rate RATES[i % 3], length EVAL_LENGTHS_S[i % 4] and
# alternates PCM-16 / float-32, so all 12 (rate, length) pairs occur.  Each
# manifest holds one file per rate.
EVAL_FILES = 12
EVAL_LENGTHS_S = (0.6, 1.0, 1.5, 2.0)
EVAL_CHUNK = 3
EVAL_SWEEP = (("white", 5.0), ("pink", 15.0), ("white", 30.0))


@dataclass(frozen=True)
class Outcome:
    """What one run of an op decided, and how it scored."""

    decisions: int
    failed: int
    scored: int = 0
    correct: int = 0


@dataclass
class Op:
    """One timed request: a detector call, or one evaluate_corpus run."""

    method: str
    run: Callable[[], object]
    score: Callable[[object], Outcome]
    audio_s: float                 # audio decided by one run
    trials: int = 1                # decisions made by one run
    label: str = ""
    signal: object = None          # detector input, for the antisymmetry check


@dataclass
class Workload:
    ops: list
    # Checks made once, outside the timed region, on each op's first
    # result; returns (checks attempted, checks failed).
    check: Callable[[list, list], tuple] | None = None
    # Ops re-run once under tracemalloc: those with the largest inputs.
    alloc_ops: tuple = ()


def _detect(method: str, s):
    if method == "hp":
        return sp.detect_polarity_hp(s)
    return sp.detect_polarity_reskew(s)


def _votes(d) -> tuple:
    # The vote fields are due to be renamed (positive_slope_votes ->
    # positive_votes); read whichever the package provides.
    pos = getattr(d, "positive_votes", getattr(d, "positive_slope_votes", 0))
    neg = getattr(d, "negative_votes", getattr(d, "negative_slope_votes", 0))
    return pos, neg


def result_key(result):
    """A comparable summary of a result, to check that repeats agree exactly."""
    if isinstance(result, Exception):
        return ("raised", type(result).__name__)
    if isinstance(result, tuple):  # (report, csv, json) from an eval op
        return result[1:]
    return (result.polarity.value, *_votes(result), result.anchors_used, result.statistic)


def antisymmetric(d, dn) -> bool:
    """Negating the input flips the decision, swaps the votes and negates the statistic."""
    if dn.polarity is not d.polarity.flipped():
        return False
    if _votes(dn) != _votes(d)[::-1] or dn.anchors_used != d.anchors_used:
        return False
    if (d.statistic is None) != (dn.statistic is None):
        return False
    # the same relative tolerance as acceptance test A2
    return d.statistic is None or abs(d.statistic + dn.statistic) <= 1e-9 * max(abs(d.statistic), 1e-30)


def _score_decision(truth):
    def score(result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome(1, 1)
        if truth is None:
            return Outcome(1, 0)
        return Outcome(1, 0, 1, int(result.polarity is truth))
    return score


def _score_report(result) -> Outcome:
    if isinstance(result, Exception):
        return Outcome(1, 1)
    report = result[0]
    errors = sum(r.decision == "error" for r in report.per_file)
    tally = next(iter(report.per_method.values()))
    return Outcome(len(report.per_file), errors + len(report.consistency_failures),
                   tally.trials, tally.correct)


def _noisy(s, kind: str, snr_db: float, rng):
    return sp.mix_noise(s, sp.NoiseSpec(kind, snr_db, seed=int(rng.integers(2**31))))


def _utterance(rng, pitch, formants, fs, duration_s, polarity):
    return sp.generate_utterance(sp.SynthSpec(
        pitch_hz=pitch, duration_s=duration_s, sample_rate_hz=fs, formants=formants,
        polarity=polarity, jitter_pct=float(rng.integers(0, 4)),
        seed=int(rng.integers(2**31))))


def _polarity(rng):
    return sp.Polarity.POSITIVE if rng.integers(2) else sp.Polarity.NEGATIVE


def _detector_ops(items) -> list:
    """Both detectors on every (label, signal, truth) item, hp first."""
    return [Op(m, (lambda m=m, s=s: _detect(m, s)), _score_decision(truth), s.duration_s,
               label=label, signal=s)
            for label, s, truth in items for m in METHODS]


def _failing_op() -> Op:
    """A deliberately invalid request (10 ms of audio), which must raise."""
    s = sp.Signal(np.ones(80), 8000)
    return Op("hp", lambda: _detect("hp", s), _score_decision(None), s.duration_s,
              label="injected failure", signal=s)


def _antisymmetry_check(n_checked: int, seed: int):
    """Re-run a seeded subset of detector ops on the negated input."""
    def check(ops, first_results):
        rng = np.random.default_rng([seed, 1])
        pick = rng.choice(len(ops), size=min(n_checked, len(ops)), replace=False)
        attempted = failed = 0
        for i in sorted(pick):
            if isinstance(first_results[i], Exception):
                continue  # already counted as a failed op
            attempted += 1
            try:
                failed += not antisymmetric(first_results[i],
                                            _detect(ops[i].method, ops[i].signal.negated()))
            except Exception:
                failed += 1
        return attempted, failed
    return check


def detect_short(seed: int, workdir: Path, tiny: bool = False, inject_failure: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 0])
    pitches = PITCHES[::4] if tiny else PITCHES
    formant_sets = FORMANT_SETS[:1] if tiny else FORMANT_SETS
    items = []
    for pi, pitch in enumerate(pitches):
        for fi, formants in enumerate(formant_sets):
            for ri, fs in enumerate(RATES):
                truth = _polarity(rng)
                s = _utterance(rng, pitch, formants, fs, 1.0, truth)
                cond = SHORT_CONDITIONS[(pi + fi + ri) % len(SHORT_CONDITIONS)]
                if cond is not None:
                    s = _noisy(s, *cond, rng)
                name = "clean" if cond is None else f"{cond[0]} {cond[1]:g} dB"
                items.append((f"{fs} Hz f0={pitch:g} F1={formants[0][0]:g} {name}", s, truth))
    for fs in RATES:  # unvoiced inputs: decided and checked, but not scored
        for kind in ("white", "pink"):
            noise = _noisy(sp.Signal(np.full(fs, 1e-3), fs), kind, -10.0, rng)
            items.append((f"{fs} Hz unvoiced {kind}", noise, None))
    ops = _detector_ops(items)
    if inject_failure:
        ops.append(_failing_op())
    n_checked = 4 if tiny else SHORT_ANTISYMMETRY_CHECKS
    first_48k = 2 * RATES.index(48000)  # hp and reskew on the first 48 kHz utterance
    return Workload(ops, _antisymmetry_check(n_checked, seed), (first_48k, first_48k + 1))


def _long_recording(rng, fs: int, n: int, truth):
    """Voiced segments with a drifting pitch, separated by pauses, under white noise."""
    parts, total, k = [], 0, 0
    while total < n:
        drift = 1.0 + 0.35 * np.sin(2.0 * np.pi * k / 17.0)
        pitch = float(140.0 * drift * rng.uniform(0.95, 1.05))
        seg = _utterance(rng, pitch, FORMANT_SETS[k % len(FORMANT_SETS)], fs,
                         LONG_SEGMENT_S[k % len(LONG_SEGMENT_S)], sp.Polarity.POSITIVE).samples
        pause = np.zeros(int(LONG_PAUSE_S[k % len(LONG_PAUSE_S)] * fs))
        parts += [seg, pause]
        total += seg.size + pause.size
        k += 1
    x = np.concatenate(parts)[:n]
    if truth is sp.Polarity.NEGATIVE:
        x = -x
    return _noisy(sp.Signal(x, fs), "white", LONG_SNR_DB, rng)


def long_file(seed: int, workdir: Path, tiny: bool = False, inject_failure: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 0])
    items = []
    for fs, n in LONG_FILES:
        n = n // 20 if tiny else n
        truth = _polarity(rng)
        items.append((f"{fs} Hz {n} samples", _long_recording(rng, fs, n, truth), truth))
    ops = _detector_ops(items)
    if inject_failure:
        ops.append(_failing_op())
    # Checked on the 16 kHz file only, to keep the set-up short.
    check = _antisymmetry_check(2, seed)
    return Workload(ops, lambda ops_, res: check(ops_[:2], res[:2]), (2, 3))


def _write_wav(path: Path, s, float32: bool) -> None:
    if float32:
        wavfile.write(path, s.sample_rate_hz, s.samples.astype(np.float32))
    else:
        sp.save_wav(path, s)


def eval_sweep(seed: int, workdir: Path, tiny: bool = False, inject_failure: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 0])
    files = []  # (manifest line, duration)
    for i in range(EVAL_CHUNK if tiny else EVAL_FILES):
        fs = RATES[i % len(RATES)]
        float32 = bool(i % 2)
        truth = _polarity(rng)
        s = _utterance(rng, PITCHES[(3 * i) % len(PITCHES)], FORMANT_SETS[i % len(FORMANT_SETS)],
                       fs, EVAL_LENGTHS_S[i % len(EVAL_LENGTHS_S)], truth)
        name = f"utt{i:02d}_{fs}Hz_{'f32' if float32 else 'pcm16'}.wav"
        _write_wav(workdir / name, s, float32)
        files.append((f"{name},{truth.value},speech", s.duration_s))
    if inject_failure:
        files.append(("missing.wav,positive,speech", 0.0))  # recorded as error trials
    sweep = [sp.NoiseSpec(kind, snr, seed=int(rng.integers(2**31))) for kind, snr in EVAL_SWEEP]
    ops = []
    for c in range(0, len(files), EVAL_CHUNK):
        chunk = files[c:c + EVAL_CHUNK]
        path = workdir / f"manifest{c // EVAL_CHUNK}.txt"
        path.write_text("".join(line + "\n" for line, _ in chunk), encoding="utf-8")
        manifest = sp.parse_manifest(path)
        per_run = 2 * len(sweep)  # each file: every level, both orientations
        for m in METHODS:
            ops.append(Op(m, (lambda m=m, manifest=manifest: _evaluate(manifest, m, sweep)),
                          _score_report, per_run * sum(d for _, d in chunk),
                          trials=per_run * len(chunk), label=path.name))
    return Workload(ops, alloc_ops=(0, 1))


def _evaluate(manifest, method: str, sweep) -> tuple:
    report = sp.evaluate_corpus(manifest, methods=(method,), noise_sweep=sweep)
    return report, sp.render_report(report, "csv"), sp.render_report(report, "json")


WORKLOADS = {"detect-short": detect_short, "long-file": long_file, "eval-sweep": eval_sweep}
