"""Benchmark of the speechpolarity package, driven from outside.

    python3 perfbench/run.py --workload detect-short --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Workloads:

  detect-short  ~1 s utterances at 8, 16 and 48 kHz (per-call costs)
  long-file     60 s at 16 kHz and 20 s at 48 kHz (costs that scale with length)
  eval-sweep    evaluate_corpus + render_report over WAV manifests (the harness)

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it records the run context.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread in this process before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

SETUP_REPEATS = 5
MIN_ROUNDS = 2
# A decision share below this means the detectors are broken, not just weak.
ACCURACY_FLOOR_PCT = 75.0

END_TO_END = {
    "setup_s": "s",
    "hp_ms_p50": "ms", "hp_ms_p90": "ms", "reskew_ms_p50": "ms", "reskew_ms_p90": "ms",
    "hp_audio_s_per_s": "s/s", "reskew_audio_s_per_s": "s/s",
    "eval_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "hp_accuracy_pct": "%", "reskew_accuracy_pct": "%",
}

# Per-layer metrics: time per utterance (one signal decided by both
# methods), calls per utterance, work ratios and peak allocations.
SELF_MS = ("dsp.analytic_signal", "dsp.hilbert_envelope", "dsp.cosine_phase",
           "epochs.estimate_mean_pitch", "epochs.zff_filter", "epochs.extract_epochs",
           "hilbert_phase.select_he_peaks", "hilbert_phase.phase_sign_at_peak",
           "hilbert_phase.detect_polarity_hp", "reskew.lfilter", "reskew.levinson",
           "reskew.lp_residual", "reskew.glottal_flow_estimate", "reskew.skewness",
           "reskew.detect_polarity_reskew", "types.validate", "synth.mix_noise",
           "harness.load_wav", "harness.evaluate_corpus")
CALLS_PER_UTT = ("reskew.lfilter", "epochs.estimate_mean_pitch", "reskew.glottal_flow_estimate",
                 "dsp.analytic_signal", "hilbert_phase.phase_sign_at_peak", "types.validate")
PER_LAYER = {
    "trace.overhead_pct": "%", "trace.coverage_pct": "%",
    **{f"{n}.self_ms": "ms" for n in SELF_MS},
    "harness.render_report.ms": "ms",
    **{f"{n}.calls_per_utt": "count" for n in CALLS_PER_UTT},
    "epochs.extract_epochs.epochs_per_audio_s": "1/s",
    "hilbert_phase.select_he_peaks.peaks_per_epoch": "ratio",
    "hilbert_phase.phase_sign_at_peak.vote_yield": "ratio",
    "epochs.zff_filter.peak_alloc_mb": "MB",
    "dsp.analytic_signal.peak_alloc_mb": "MB",
    "reskew.lp_residual.peak_alloc_mb": "MB",
}

SETUP_CHILD = """\
import sys
import numpy as np
import speechpolarity as sp
s = sp.Signal(np.load(sys.argv[1]), int(sys.argv[2]))
sp.detect_polarity_hp(s)
sp.detect_polarity_reskew(s)
print("decided", flush=True)
"""


def _import_package():
    """Import speechpolarity from this checkout's src/, or exit without a result."""
    if not (SRC / "speechpolarity" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'speechpolarity'}; "
                 "run from the root of a speechpolarity checkout")
    sys.path.insert(0, str(SRC))
    import speechpolarity
    if Path(speechpolarity.__file__).resolve().parent != SRC / "speechpolarity":
        sys.exit(f"perfbench: imported {speechpolarity.__file__}, not the checkout's copy")
    return speechpolarity


def _percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _timed(op):
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed request is recorded, never fatal
        result = exc
    return time.perf_counter() - start, result


def measure_setup(sp, workdir: Path, seed: int, repeats: int, host) -> float:
    """Median wall time from a fresh interpreter to its first hp and reskew decisions.

    The input is synthesised beforehand and read from a .npy file, so
    synthesis is not counted; the interpreter start, the package import
    (mostly scipy) and the two first calls are.
    """
    import numpy as np
    s = sp.generate_utterance(sp.SynthSpec(pitch_hz=130.0, seed=seed))
    npy = workdir / "setup_input.npy"
    np.save(npy, s.samples)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(repeats):
        host.measure()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(npy), str(s.sample_rate_hz)],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "decided":
            raise RuntimeError(f"set-up probe exited {proc.returncode} after printing {line!r}")
        times.append(elapsed)
    return statistics.median(times)


class Run:
    """Repeated rounds over a workload's ops, with every result kept for checking."""

    def __init__(self, workload):
        from workloads import result_key
        self.ops = workload.ops
        self.result_key = result_key
        self.first = [None] * len(self.ops)
        self.keys = [None] * len(self.ops)
        self.times = [[] for _ in self.ops]
        self.attempted = self.failed = 0
        self.repeats_agree = True
        self.rounds = 0

    def record(self, i, result):
        outcome = self.ops[i].score(result)
        self.attempted += outcome.decisions
        self.failed += outcome.failed
        key = self.result_key(result)
        if self.first[i] is None:
            self.first[i], self.keys[i] = result, key
        elif key != self.keys[i]:
            self.repeats_agree = False

    def rounds_for(self, seconds: float, step, min_rounds: int = 1, whole_rounds: bool = False):
        """Step through the ops in rounds until ``seconds`` have passed.

        The first ``min_rounds`` rounds always complete.  After that the
        run stops at the first op that starts late, so it ends within one op
        of ``seconds`` and some ops get one repeat more than others; with
        ``whole_rounds`` it stops only between rounds.
        """
        start = time.perf_counter()
        while True:
            for i in range(len(self.ops)):
                late = time.perf_counter() - start >= seconds
                if self.rounds >= min_rounds and late and (i == 0 or not whole_rounds):
                    return
                step(i)
            self.rounds += 1

    def accuracy_pct(self, method: str) -> float:
        scored = correct = 0
        for op, result in zip(self.ops, self.first):
            if op.method == method:
                o = op.score(result)
                scored += o.scored
                correct += o.correct
        return 100.0 * correct / scored if scored else 0.0


def _rates(run, op_s) -> dict:
    """Latency percentiles and rates over the distinct ops, given one time per op."""
    out = {}
    for m in ("hp", "reskew"):
        idx = [i for i, op in enumerate(run.ops) if op.method == m]
        per_call_ms = [1e3 * op_s[i] / run.ops[i].trials for i in idx]
        out[f"{m}_ms_p50"] = _percentile(per_call_ms, 50)
        out[f"{m}_ms_p90"] = _percentile(per_call_ms, 90)
        out[f"{m}_audio_s_per_s"] = sum(run.ops[i].audio_s for i in idx) / sum(op_s[i] for i in idx)
    out["eval_trials_per_s"] = sum(op.trials for op in run.ops) / sum(op_s)
    return out


def end_to_end(sp, workload, args, workdir: Path) -> tuple:
    from hostspeed import NOMINAL_S, HostSpeed
    run = Run(workload)
    starts = [[] for _ in run.ops]
    setup_repeats = 1 if args.tiny else SETUP_REPEATS
    host = HostSpeed()
    setup_s = measure_setup(sp, workdir, args.seed, setup_repeats, host)

    def step(i):
        starts[i].append(time.perf_counter())
        dt, result = _timed(run.ops[i])
        run.times[i].append(dt)
        run.record(i, result)
        host.tick()

    run.rounds_for(args.seconds, step, MIN_ROUNDS)
    # Each op's time is the fastest of its repeats, which are spread over
    # the whole run: this host has slow spells of a few seconds in which
    # every call runs up to 1.7x slower, and the fastest repeat is the one
    # least disturbed by them.  Each repeat is first scaled by the host
    # speed around it (see hostspeed.py), which also removes slow periods
    # longer than a run.  Percentiles and rates are then taken over the
    # distinct ops, so they describe the spread across inputs.
    scaled_s = [min(dt * NOMINAL_S / host.local_min(t0, t0 + dt) for t0, dt in zip(s, t))
                for s, t in zip(starts, run.times)]
    metrics = {"setup_s": setup_s * host.factor(), **_rates(run, scaled_s),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for m in ("hp", "reskew"):
        metrics[f"{m}_accuracy_pct"] = run.accuracy_pct(m)
    repeats = [len(t) for t in run.times]
    context = {"rounds": run.rounds,
               "percentile_samples": {m: sum(op.method == m for op in run.ops) for m in ("hp", "reskew")},
               "repeats_per_op": [min(repeats), max(repeats)], "setup_repeats": setup_repeats,
               "host_speed": _host_context(host),
               "unscaled": {"setup_s": setup_s, **_rates(run, [min(t) for t in run.times])}}
    return run, metrics, END_TO_END, context


def _host_context(host) -> dict:
    from hostspeed import NOMINAL_S
    return {"factor": host.factor(), "kernel_min_ms": 1e3 * min(host.samples),
            "kernel_nominal_ms": 1e3 * NOMINAL_S, "kernel_runs": len(host.samples)}


def per_layer(workload, args) -> tuple:
    from hostspeed import HostSpeed
    from tracing import ALLOC_FUNCTIONS, REQUEST, AllocTracer, Tracer
    host = HostSpeed()
    tracer = Tracer()
    run = Run(workload)
    plain, traced = [], []
    decisions = [0]  # made by traced runs

    def step(i):
        # Alternate which side goes first, so drift in host speed cancels.
        order = (False, True) if run.rounds % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                start = time.perf_counter()
                try:
                    result = tracer.run(run.ops[i].run)
                except Exception as exc:
                    result = exc
                traced.append(time.perf_counter() - start)
                decisions[0] += run.ops[i].trials
            else:
                dt, result = _timed(run.ops[i])
                plain.append(dt)
            run.record(i, result)
        host.tick()

    # Whole rounds, so that per-utterance figures weigh every input alike.
    run.rounds_for(args.seconds, step, whole_rounds=True)
    alloc = AllocTracer()
    for i in workload.alloc_ops:
        try:
            alloc.run(run.ops[i].run)
        except Exception:
            pass  # the failure was already counted in the timed rounds

    s = tracer.summary()
    n_utt = decisions[0] / 2.0  # every signal is decided by both methods
    ms_per_utt = 1e3 * host.factor() / n_utt  # scaled to the nominal host speed
    calls, self_s = s["calls"], s["self_s"]
    metrics = {
        "trace.overhead_pct": 100.0 * (sum(traced) / sum(plain) - 1.0),
        "trace.coverage_pct": 100.0 * sum(v for k, v in self_s.items() if k != REQUEST) / s["request_s"],
    }
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = ms_per_utt * self_s.get(name, 0.0)
    metrics["harness.render_report.ms"] = ms_per_utt * self_s.get("harness.render_report", 0.0)
    for name in CALLS_PER_UTT:
        metrics[f"{name}.calls_per_utt"] = calls.get(name, 0) / n_utt
    metrics["epochs.extract_epochs.epochs_per_audio_s"] = (
        tracer.epochs / tracer.epoch_audio_s if tracer.epoch_audio_s else 0.0)
    metrics["hilbert_phase.select_he_peaks.peaks_per_epoch"] = (
        tracer.peaks / tracer.peak_epochs if tracer.peak_epochs else 0.0)
    n_votes = calls.get("hilbert_phase.phase_sign_at_peak", 0)
    metrics["hilbert_phase.phase_sign_at_peak.vote_yield"] = tracer.votes / n_votes if n_votes else 0.0
    for name in ALLOC_FUNCTIONS:
        metrics[f"{name}.peak_alloc_mb"] = alloc.peak.get(name, 0) / 2.0**20
    context = {"rounds": run.rounds, "utterances_traced": n_utt, "spans": len(tracer.spans),
               "alloc_ops": [run.ops[i].label for i in workload.alloc_ops],
               "host_speed": _host_context(host)}
    return run, metrics, PER_LAYER, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("detect-short", "long-file", "eval-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one request that must fail, for the self-test")
    args = parser.parse_args(argv)

    sp = _import_package()
    import numpy
    import scipy
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny,
                                            inject_failure=args.inject_failure)
        if args.trace:
            run, metrics, units, context = per_layer(workload, args)
        else:
            run, metrics, units, context = end_to_end(sp, workload, args, workdir)
        attempted, failed = run.attempted, run.failed
        if workload.check is not None:
            checked, bad = workload.check(run.ops, run.first)
            attempted += checked
            failed += bad
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    accuracy_ok = all(run.accuracy_pct(m) >= ACCURACY_FLOOR_PCT for m in ("hp", "reskew"))
    correct = failed == 0 and run.repeats_agree and accuracy_ok
    context.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "failed_op_ratio": failed / attempted, "failed_op_base": attempted,
        "repeats_agree": run.repeats_agree, "accuracy_floor_pct": ACCURACY_FLOOR_PCT,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_env": BLAS_ENV,
        "package": str(Path(sp.__file__).parent.relative_to(ROOT)),
    })
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
