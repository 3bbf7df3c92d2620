"""Analytic-signal machinery against closed forms and an independent kernel."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import irfft, rfft
from scipy.signal import filtfilt

from speechpolarity import (InvalidInputError, Signal, SynthSpec, analytic_signal, cosine_phase,
                            generate_utterance, hilbert_envelope, hilbert_transform)
from speechpolarity.dsp import butterworth, zero_phase_butterworth
from speechpolarity.frontend import BAND_HIGH_HZ, BAND_LOW_HZ
from speechpolarity.reskew import RESIDUAL_SMOOTH_HZ

FS = 16000
EDGE = 16


def bandlimited_noise(n, fs, lo, hi, seed):
    """Exactly bandlimited zero-DC noise via spectral masking."""
    rng = np.random.default_rng(seed)
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = 0.0
    return np.fft.irfft(spec, n)


def circular_hilbert_kernel(n):
    """Direct O(n^2)-usable kernel: inverse DFT of the -j/+j multiplier.

    For even n the closed form is (2/n)/tan(pi*m/n) at odd m and 0 at even m.
    Computed here by explicit summation so it shares nothing with the FFT
    implementation under test.
    """
    m = np.arange(n)
    k = np.arange(1, (n + 1) // 2)  # 0 < k < n/2
    kernel = np.zeros(n)
    for j in m:
        kernel[j] = (2.0 / n) * np.sum(np.sin(2.0 * np.pi * k * j / n))
    return kernel


class TestHilbertTransform:
    def test_cosine_becomes_sine(self):
        n = 1600
        t = np.arange(n) / FS
        out = hilbert_transform(np.cos(2 * np.pi * 500 * t))
        expected = np.sin(2 * np.pi * 500 * t)
        assert np.max(np.abs(out[EDGE:-EDGE] - expected[EDGE:-EDGE])) <= 1e-10

    def test_constant_is_annihilated(self):
        c = 3.7
        out = hilbert_transform(np.full(1024, c))
        assert np.max(np.abs(out)) <= 1e-12 * abs(c)

    def test_involution_on_bandlimited_noise(self):
        # H(H(x)) = -x for signals without DC or Nyquist content
        for seed in range(5):
            x = bandlimited_noise(FS, FS, 50, 7000, seed)
            hh = hilbert_transform(hilbert_transform(x))
            rel = np.linalg.norm(hh + x) / np.linalg.norm(x)
            assert rel <= 1e-6

    def test_matches_direct_circular_convolution(self):
        # independent oracle: explicit-summation kernel, direct convolution
        n = 128
        kernel = circular_hilbert_kernel(n)
        rng = np.random.default_rng(42)
        x = rng.standard_normal(n)
        # circular convolution: y[j] = sum_m x[m] kernel[(j - m) mod n]
        direct = np.array([np.sum(x * kernel[(j - np.arange(n)) % n]) for j in range(n)])
        fft_path = hilbert_transform(x)
        assert np.max(np.abs(direct - fft_path)) <= 1e-10

    def test_matches_direct_circular_convolution_at_awkward_lengths(self):
        # primes, a product of two primes and twice a prime: zero padding to a
        # fast FFT length would make the transform aperiodic and miss the oracle
        rng = np.random.default_rng(43)
        for n in (127, 143, 1009, 2018):
            kernel = circular_hilbert_kernel(n)
            x = rng.standard_normal(n)
            direct = np.array([np.sum(x * kernel[(j - np.arange(n)) % n]) for j in range(n)])
            fft_path = hilbert_transform(x)
            assert np.max(np.abs(direct - fft_path)) <= 1e-10, n

    @staticmethod
    def one_sided_pair(x):
        """One rfft/irfft pair at the signal's own length: the reference transform."""
        n = x.size
        spec = rfft(x)
        spec[0] = 0.0
        if n % 2 == 0:
            spec[-1] = 0.0
        spec *= -1j
        return irfft(spec, n)

    @pytest.mark.parametrize("n", [1024, 16000, 48000, 16001, 48011, 160065])
    def test_matches_one_sided_pair_at_every_length(self, n):
        # smooth lengths and lengths with a large prime factor alike take the
        # pair itself, bit for bit
        x = np.random.default_rng(n).standard_normal(n)
        out = hilbert_transform(x)
        assert out.tobytes() == self.one_sided_pair(x).tobytes()
        assert hilbert_transform(-x).tobytes() == (-out).tobytes()

    def test_impulse_response_closed_form(self):
        # imag part of the analytic signal of a centered impulse follows
        # (2/n) cot(pi m / n) at odd offsets and vanishes at even offsets
        n, n0 = 1024, 512
        x = np.zeros(n)
        x[n0] = 1.0
        out = hilbert_transform(x)
        assert abs(out[n0]) <= 1e-12
        m = np.arange(1, 200)
        odd = m[m % 2 == 1]
        even = m[m % 2 == 0]
        expected_odd = (2.0 / n) / np.tan(np.pi * odd / n)
        assert np.max(np.abs(out[n0 + odd] - expected_odd)) <= 1e-12
        assert np.max(np.abs(out[n0 + even])) <= 1e-12
        # odd symmetry about the impulse
        assert np.max(np.abs(out[n0 + m] + out[n0 - m])) <= 1e-12

    def test_parseval_energy(self):
        x = bandlimited_noise(8000, FS, 50, 7000, 7)
        e_in = np.sum(x ** 2)
        e_out = np.sum(hilbert_transform(x) ** 2)
        assert e_out <= e_in * (1 + 1e-12)
        assert abs(e_out - e_in) <= 1e-9 * e_in

    @pytest.mark.parametrize("samples,rate,match", [
        (np.array([]), FS, "at least one sample"), (np.array([0.0, np.nan]), FS, "non-finite"),
        (np.ones((2, 8)), FS, "one-dimensional"), (np.ones(8), 0, "sample rate")])
    def test_rejects_empty_and_nonfinite(self, samples, rate, match):
        with pytest.raises(InvalidInputError, match=match):
            Signal(samples, rate)

    @pytest.mark.parametrize("shape", [(0,), (2, 8), (1, 1), ()])
    def test_rejects_empty_and_multidimensional_arrays(self, shape):
        with pytest.raises(InvalidInputError):
            hilbert_transform(np.ones(shape))


class TestAnalyticSignal:
    def test_cosine_gives_unit_modulus(self):
        n = 1600
        t = np.arange(n) / FS
        real, imag = analytic_signal(np.cos(2 * np.pi * 500 * t))
        assert np.allclose(real, np.cos(2 * np.pi * 500 * t))
        mod = np.hypot(real, imag)
        assert np.max(np.abs(mod[EDGE:-EDGE] - 1.0)) <= 1e-9

    def test_zero_signal(self):
        real, imag = analytic_signal(np.zeros(256))
        assert not real.any() and not imag.any()

    def test_real_part_verbatim(self):
        x = bandlimited_noise(4096, FS, 100, 6000, 3)
        real, _ = analytic_signal(x)
        assert np.array_equal(real, x)


class TestEnvelopeAndPhase:
    def test_unit_cosine_envelope(self):
        n = 1600
        t = np.arange(n) / FS
        env = hilbert_envelope(analytic_signal(np.cos(2 * np.pi * 500 * t)))
        assert np.max(np.abs(env[EDGE:-EDGE] - 1.0)) <= 1e-9

    def test_envelope_polarity_invariance(self):
        for seed in range(5):
            x = bandlimited_noise(FS, FS, 50, 7000, seed + 100)
            e_pos = hilbert_envelope(analytic_signal(x))
            e_neg = hilbert_envelope(analytic_signal(-x))
            assert np.max(np.abs(e_pos - e_neg)) <= 1e-12 * (1.0 + e_pos.max())

    def test_phase_antisymmetry(self):
        for seed in range(5):
            x = bandlimited_noise(FS, FS, 50, 7000, seed + 200)
            a_pos = analytic_signal(x)
            a_neg = analytic_signal(-x)
            env = np.hypot(*a_pos)
            eps = 1e-12 * env.max()
            p_pos = cosine_phase(a_pos)
            p_neg = cosine_phase(a_neg)
            mask = env > eps
            assert np.max(np.abs(p_pos[mask] + p_neg[mask])) <= 1e-12

    def test_phase_of_cosine_is_cosine(self):
        n = 1600
        t = np.arange(n) / FS
        x = np.cos(2 * np.pi * 500 * t)
        phase = cosine_phase(analytic_signal(x))
        assert np.max(np.abs(phase[EDGE:-EDGE] - x[EDGE:-EDGE])) <= 1e-6

    def test_zero_signal_gives_zero_phase(self):
        phase = cosine_phase(analytic_signal(np.zeros(512)))
        assert not phase.any()

    def test_phase_range(self):
        x = bandlimited_noise(4096, FS, 100, 6000, 11)
        phase = cosine_phase(analytic_signal(x))
        assert phase.min() >= -1.0 and phase.max() <= 1.0

    @pytest.mark.parametrize("fs", (8000, 16000, 22050, 44100, 48000))
    def test_envelope_within_one_ulp_of_hypot(self, fs):
        x = generate_utterance(SynthSpec(pitch_hz=135.0, sample_rate_hz=fs, seed=31)).samples
        for signal in (x, np.gradient(x)):  # the flow's and the peak search's kind of pair
            pair = analytic_signal(signal)
            want = np.hypot(*pair)
            assert np.all(np.abs(hilbert_envelope(pair) - want) <= np.spacing(want))

    @pytest.mark.parametrize("peak", (1e300, 1e-300))
    def test_extreme_peaks_take_the_scaled_path_without_a_warning(self, peak):
        x = bandlimited_noise(4096, FS, 100, 6000, 12)
        real, imag = pair = analytic_signal(x * (peak / np.abs(x).max()))
        with np.errstate(all="ignore"):  # unscaled, the squares overflow or underflow
            assert not 2.0 ** -1000 <= (real * real + imag * imag).max() < np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = hilbert_envelope(pair)
            phase = cosine_phase(pair)
        want = np.hypot(real, imag)
        assert np.all(np.abs(env - want) <= np.spacing(want))
        assert np.max(np.abs(phase - cosine_phase(analytic_signal(x)))) <= 1e-12


class TestZeroPhaseButterworth:
    @pytest.mark.parametrize("fs", (8000, 16000, 48000))
    @pytest.mark.parametrize("order,high_hz,low_hz", [(2, BAND_HIGH_HZ, BAND_LOW_HZ),
                                                      (4, RESIDUAL_SMOOTH_HZ, None)],
                             ids=["band-pass", "low-pass"])
    def test_equals_filtfilt_byte_for_byte(self, fs, order, high_hz, low_hz):
        # 16 samples is one more than the 15-sample odd extension; then 1 s
        x = generate_utterance(SynthSpec(pitch_hz=150.0, sample_rate_hz=fs, seed=32)).samples
        for n in (16, fs):
            want = filtfilt(*butterworth(order, fs, high_hz, low_hz)[:2], x[:n])
            got = zero_phase_butterworth(x[:n], order, fs, high_hz, low_hz)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_rejects_input_not_longer_than_the_extension(self):
        with pytest.raises(InvalidInputError, match="more than 15 samples"):
            zero_phase_butterworth(np.ones(15), 2, FS, BAND_HIGH_HZ, BAND_LOW_HZ)


# Elements 0 or of magnitude in [2^-200, 2^200]: their squares, even scaled by
# 2^-400 to 2^400, are normal numbers, so a power-of-two scale is exact.
property_settings = settings(derandomize=True, deadline=None, database=None)
moderate = st.one_of(st.just(0.0), st.floats(2.0 ** -200, 2.0 ** 200),
                     st.floats(-(2.0 ** 200), -(2.0 ** -200)))
pairs = st.integers(1, 64).flatmap(
    lambda n: st.tuples(arrays(np.float64, n, elements=moderate),
                        arrays(np.float64, n, elements=moderate)))


@property_settings
@given(pair=pairs, k=st.one_of(st.integers(-200, 200), st.integers(-800, -701),
                               st.integers(712, 800)))
def test_envelope_commutes_with_power_of_two_scaling(pair, k):
    # k beyond +-200 takes the scaled path: a peak in [2^-200, 2^200] scaled by
    # 2^712 or more has a square that overflows, by 2^-701 or less one below 2^-1000
    scaled = (np.ldexp(pair[0], k), np.ldexp(pair[1], k))
    assert hilbert_envelope(scaled).tobytes() == np.ldexp(hilbert_envelope(pair), k).tobytes()
