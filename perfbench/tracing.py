"""Outside-in span tracing of the package's layers.

The tracer rebinds each layer's public function in every package module
that holds it (``epochs.estimate_mean_pitch`` is also reached as
``hilbert_phase.estimate_mean_pitch`` and ``reskew.estimate_mean_pitch``),
plus ``scipy.signal.lfilter`` as bound in ``reskew`` and the wrapper types'
``__post_init__`` validation.  Each call records a span (name, start, end,
parent, request id) in memory; self times are derived after the run.

A separate ``AllocTracer`` measures each function's peak allocation with
``tracemalloc``, which slows allocation-heavy code several-fold and so never
shares a pass with the timings.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import tracemalloc
from collections import defaultdict

import speechpolarity as sp

# (span name, module, attribute) of every traced function.
FUNCTIONS = (
    ("dsp.analytic_signal", "dsp", "analytic_signal"),
    ("dsp.hilbert_envelope", "dsp", "hilbert_envelope"),
    ("dsp.cosine_phase", "dsp", "cosine_phase"),
    ("epochs.estimate_mean_pitch", "epochs", "estimate_mean_pitch"),
    ("epochs.zff_filter", "epochs", "zff_filter"),
    ("epochs.extract_epochs", "epochs", "extract_epochs"),
    ("hilbert_phase.select_he_peaks", "hilbert_phase", "select_he_peaks"),
    ("hilbert_phase.phase_sign_at_peak", "hilbert_phase", "phase_sign_at_peak"),
    ("hilbert_phase.detect_polarity_hp", "hilbert_phase", "detect_polarity_hp"),
    ("reskew.levinson", "reskew", "levinson"),
    ("reskew.lp_residual", "reskew", "lp_residual"),
    ("reskew.glottal_flow_estimate", "reskew", "glottal_flow_estimate"),
    ("reskew.skewness", "reskew", "skewness"),
    ("reskew.detect_polarity_reskew", "reskew", "detect_polarity_reskew"),
    ("synth.mix_noise", "synth", "mix_noise"),
    ("harness.load_wav", "harness", "load_wav"),
    ("harness.evaluate_corpus", "harness", "evaluate_corpus"),
    ("harness.render_report", "harness", "render_report"),
)
# Bound only in the module that calls it: synth's lfilter is not the LP loop.
LFILTER = ("reskew.lfilter", "reskew", "lfilter")
VALIDATE = "types.validate"
ALLOC_FUNCTIONS = ("epochs.zff_filter", "dsp.analytic_signal", "reskew.lp_residual")
REQUEST = "request"


def _package_modules() -> list:
    mods = [sp]
    for info in pkgutil.iter_modules(sp.__path__):
        mods.append(importlib.import_module(f"{sp.__name__}.{info.name}"))
    return mods


class _Rebinder:
    """Swaps functions for wrappers wherever the package holds them, and back."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original)
        self._mods = _package_modules()

    def bind(self, make_wrapper, functions, lfilter=None, validate=False):
        mods = self._mods
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for name, module, attr in functions:
            original = getattr(by_name.get(module), attr, None)
            if original is None:
                continue  # the layer no longer has this function
            wrapper = make_wrapper(name, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._swap(m, key, wrapper)
        if lfilter is not None:
            name, module, attr = lfilter
            owner = by_name.get(module)
            if getattr(owner, attr, None) is not None:
                self._swap(owner, attr, make_wrapper(name, getattr(owner, attr)))
        if validate:
            types = by_name["types"]
            for value in list(vars(types).values()):
                if isinstance(value, type) and value.__module__ == types.__name__ \
                        and "__post_init__" in vars(value):
                    self._swap(value, "__post_init__", make_wrapper(VALIDATE, value.__post_init__))

    def _swap(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def unbind(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """In-memory spans of the traced functions, grouped by request."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, request id]
        self.stack = []
        self.request_id = 0
        self.epochs = 0      # epochs returned by extract_epochs
        self.epoch_audio_s = 0.0
        self.peaks = 0       # peaks returned by select_he_peaks ...
        self.peak_epochs = 0  # ... from this many epochs
        self.votes = 0       # nonzero results of phase_sign_at_peak
        self._rebinder = _Rebinder()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        observe = self._observers().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def _observers(self) -> dict:
        def epochs(args, result):
            self.epochs += len(result)
            self.epoch_audio_s += args[0].duration_s

        def peaks(args, result):
            self.peaks += len(result)
            self.peak_epochs += len(args[1])

        def vote(args, result):
            self.votes += result != 0

        return {"epochs.extract_epochs": epochs, "hilbert_phase.select_he_peaks": peaks,
                "hilbert_phase.phase_sign_at_peak": vote}

    def run(self, request):
        """Run one request with every layer traced; returns its result."""
        self._rebinder.bind(self._wrap, FUNCTIONS, lfilter=LFILTER, validate=True)
        try:
            return self._wrap(REQUEST, request)()
        finally:
            self._rebinder.unbind()
            self.request_id += 1

    def summary(self) -> dict:
        """Per span name: calls and total self time (s); plus total request time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - covered
        request_s = sum(end - start for name, start, end, _, _ in self.spans if name == REQUEST)
        return {"calls": dict(calls), "self_s": dict(self_s), "request_s": request_s}


class AllocTracer:
    """Peak bytes allocated during each call of ALLOC_FUNCTIONS, via tracemalloc."""

    def __init__(self):
        self.peak = defaultdict(int)
        self._rebinder = _Rebinder()

    def _wrap(self, name, fn):
        # The measured functions never call one another, so resetting the
        # peak on entry cannot disturb an enclosing measurement.
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            self.peak[name] = max(self.peak[name], tracemalloc.get_traced_memory()[1] - base)
            return result
        return measured

    def run(self, request):
        wanted = [f for f in FUNCTIONS if f[0] in ALLOC_FUNCTIONS]
        self._rebinder.bind(self._wrap, wanted)
        tracemalloc.start()
        try:
            return request()
        finally:
            tracemalloc.stop()
            self._rebinder.unbind()
