"""The per-layer tracer of ``perfbench/tracing.py`` still finds every stage it times."""

import importlib.util
from pathlib import Path

from speechpolarity import SynthSpec, detect_polarity_hp, detect_polarity_reskew, generate_utterance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_records_every_stage_of_both_detectors():
    s = generate_utterance(SynthSpec(pitch_hz=140.0, duration_s=0.3, sample_rate_hz=16000,
                                     seed=7))
    tracer = load_tracing().Tracer()
    tracer.run(lambda: (detect_polarity_hp(s), detect_polarity_reskew(s)))
    calls = tracer.summary()["calls"]
    for stage in ("epochs.zff_filter", "epochs.extract_epochs", "hilbert_phase.select_he_peaks",
                  "dsp.analytic_signal", "reskew.lp_residual", "reskew.glottal_flow_estimate"):
        assert calls.get(stage, 0) > 0, stage
    assert tracer.epochs > 0 and tracer.peaks > 0
