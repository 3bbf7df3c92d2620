"""Peak memory of the frame analyses, the flow and a whole call of either detector grows with
the input, by a bounded factor."""

import tracemalloc

import pytest

from speechpolarity import (Signal, SynthSpec, detect_polarity_hp, detect_polarity_reskew,
                            estimate_mean_pitch, generate_utterance, glottal_flow_estimate,
                            lp_residual, zff_filter)


@pytest.fixture(scope="module")
def twenty_seconds() -> Signal:
    return generate_utterance(SynthSpec(pitch_hz=130.0, duration_s=20.0, sample_rate_hz=16000,
                                        seed=25))


def traced_peak(fn, s, *args, first=None) -> int:
    """Peak traced bytes of ``fn`` on a new Signal with the samples of ``s``, after a warm-up
    call on ``s``.  The front end remembers the last Signal it analysed, so a new object
    keeps the measured call cold; ``first``, if given, runs on it untraced just before."""
    fn(s, *args)  # numpy's FFT plan cache fills outside the measurement
    s = Signal(s.samples, s.sample_rate_hz)
    if first is not None:
        first(s)
    tracemalloc.start()
    try:
        fn(s, *args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Multiples of the input's bytes.  Whole-file frame matrices reach about 14x
# (pitch: every 40 ms frame copied and transformed) and 5.3x (LP: every
# windowed frame copied); in blocks the pitch keeps one ACF row prefix per
# frame and one normalized copy of it, about 2x.  LP held its output, its
# weights and their quotient, 3.75x (3.38x at order 8); filtering with
# blended taps it holds its output, the coefficients and one block of taps,
# 2.0x (1.8x).  ZFF held 6x with its four cumulative sums in np.longdouble,
# then 3x in float64 with the moving average's two input-sized temporaries;
# subtracting the average in place, from one cumulative-sum buffer, it holds
# its output and that buffer, 2x.  The flow held 4x with scipy's filtfilt
# keeping its padded copy to the end and the average subtracted out of place,
# 3x without either.  A whole hp call held 6x, and 5x since it drops its
# rescaled input once the band exists and the band once the flow exists.  A
# whole reskew call holds 3x: the front end's band and pitch, then a flow
# stage whose mean-removed input is freed once the residual exists.  Right
# after hp on the same Signal it runs no front end, only the flow stage.
@pytest.mark.parametrize("fn,args,bound", [
    (estimate_mean_pitch, (), 2.5),
    (lp_residual, (None,), 4.5),
    (lp_residual, (8,), 4.5),
    (zff_filter, (120.0,), 2.5),
    (lambda s: glottal_flow_estimate(lp_residual(s), s.sample_rate_hz, mean_pitch_hz=120.0), (),
     3.5),
    (detect_polarity_hp, (), 5.5),
    (detect_polarity_reskew, (), 3.5),
], ids=["pitch", "lp-default-order", "lp-order-8", "zff", "glottal-flow", "hp", "reskew"])
def test_peak_is_a_bounded_multiple_of_the_input(twenty_seconds, fn, args, bound):
    s = twenty_seconds
    peak = traced_peak(fn, s, *args)
    assert peak < bound * s.samples.nbytes, f"{peak / s.samples.nbytes:.2f}x the input"


def test_peak_of_reskew_right_after_hp_on_one_signal(twenty_seconds):
    s = twenty_seconds
    peak = traced_peak(detect_polarity_reskew, s, first=detect_polarity_hp)
    assert peak < 3.5 * s.samples.nbytes, f"{peak / s.samples.nbytes:.2f}x the input"


# Input whose peak is not in [0.5, 1) is rescaled by a power of two.  reskew
# held 4x there while it kept the front end's rescaled copy through the LP
# and centred a second copy; its one centred copy, made from the caller's
# samples, is freed once the residual exists.
@pytest.mark.parametrize("detect,bound", [
    (detect_polarity_hp, 5.5),
    (detect_polarity_reskew, 3.5),
], ids=["hp", "reskew"])
def test_peak_on_input_that_needs_rescaling(twenty_seconds, detect, bound):
    s = Signal(0.3 * twenty_seconds.samples, twenty_seconds.sample_rate_hz)
    peak = traced_peak(detect, s)
    assert peak < bound * s.samples.nbytes, f"{peak / s.samples.nbytes:.2f}x the input"
