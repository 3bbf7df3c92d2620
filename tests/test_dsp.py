"""Analytic-signal machinery against closed forms and an independent kernel."""

import numpy as np
import pytest
from scipy.fft import irfft, rfft

from speechpolarity import (InvalidInputError, Signal, analytic_signal, cosine_phase,
                            hilbert_envelope, hilbert_transform)

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
        s = Signal(np.cos(2 * np.pi * 500 * t), FS)
        out = hilbert_transform(s).samples
        expected = np.sin(2 * np.pi * 500 * t)
        assert np.max(np.abs(out[EDGE:-EDGE] - expected[EDGE:-EDGE])) <= 1e-10

    def test_constant_is_annihilated(self):
        c = 3.7
        s = Signal(np.full(1024, c), FS)
        out = hilbert_transform(s).samples
        assert np.max(np.abs(out)) <= 1e-12 * abs(c)

    def test_involution_on_bandlimited_noise(self):
        # H(H(x)) = -x for signals without DC or Nyquist content
        for seed in range(5):
            x = bandlimited_noise(FS, FS, 50, 7000, seed)
            s = Signal(x, FS)
            hh = hilbert_transform(hilbert_transform(s)).samples
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
        fft_path = hilbert_transform(Signal(x, FS)).samples
        assert np.max(np.abs(direct - fft_path)) <= 1e-10

    def test_matches_direct_circular_convolution_at_awkward_lengths(self):
        # primes, a product of two primes and twice a prime: zero padding to a
        # fast FFT length would make the transform aperiodic and miss the oracle
        rng = np.random.default_rng(43)
        for n in (127, 143, 1009, 2018):
            kernel = circular_hilbert_kernel(n)
            x = rng.standard_normal(n)
            direct = np.array([np.sum(x * kernel[(j - np.arange(n)) % n]) for j in range(n)])
            fft_path = hilbert_transform(Signal(x, FS)).samples
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
    def test_matches_one_sided_pair_on_both_paths(self, n):
        # 5-smooth lengths take the pair itself, bit for bit; lengths with a
        # large prime factor take the padded convolution with the kernel
        x = np.random.default_rng(n).standard_normal(n)
        out = hilbert_transform(Signal(x, FS)).samples
        ref = self.one_sided_pair(x)
        if n in (1024, 16000, 48000):
            assert out.tobytes() == ref.tobytes()
        else:
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert hilbert_transform(Signal(-x, FS)).samples.tobytes() == (-out).tobytes()

    def test_impulse_response_closed_form(self):
        # imag part of the analytic signal of a centered impulse follows
        # (2/n) cot(pi m / n) at odd offsets and vanishes at even offsets
        n, n0 = 1024, 512
        x = np.zeros(n)
        x[n0] = 1.0
        out = hilbert_transform(Signal(x, FS)).samples
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
        s = Signal(x, FS)
        e_in = np.sum(x ** 2)
        e_out = np.sum(hilbert_transform(s).samples ** 2)
        assert e_out <= e_in * (1 + 1e-12)
        assert abs(e_out - e_in) <= 1e-9 * e_in

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            Signal(np.array([]), FS)
        with pytest.raises(InvalidInputError):
            Signal(np.array([0.0, np.nan]), FS)


class TestAnalyticSignal:
    def test_cosine_gives_unit_modulus(self):
        n = 1600
        t = np.arange(n) / FS
        a = analytic_signal(Signal(np.cos(2 * np.pi * 500 * t), FS))
        assert np.allclose(a.real, np.cos(2 * np.pi * 500 * t))
        mod = np.hypot(a.real, a.imag)
        assert np.max(np.abs(mod[EDGE:-EDGE] - 1.0)) <= 1e-9

    def test_zero_signal(self):
        a = analytic_signal(Signal(np.zeros(256), FS))
        assert not a.real.any() and not a.imag.any()

    def test_real_part_verbatim(self):
        x = bandlimited_noise(4096, FS, 100, 6000, 3)
        a = analytic_signal(Signal(x, FS))
        assert np.array_equal(a.real, x)


class TestEnvelopeAndPhase:
    def test_unit_cosine_envelope(self):
        n = 1600
        t = np.arange(n) / FS
        env = hilbert_envelope(analytic_signal(Signal(np.cos(2 * np.pi * 500 * t), FS)))
        assert np.max(np.abs(env.values[EDGE:-EDGE] - 1.0)) <= 1e-9

    def test_envelope_polarity_invariance(self):
        for seed in range(5):
            x = bandlimited_noise(FS, FS, 50, 7000, seed + 100)
            e_pos = hilbert_envelope(analytic_signal(Signal(x, FS))).values
            e_neg = hilbert_envelope(analytic_signal(Signal(-x, FS))).values
            assert np.max(np.abs(e_pos - e_neg)) <= 1e-12 * (1.0 + e_pos.max())

    def test_phase_antisymmetry(self):
        for seed in range(5):
            x = bandlimited_noise(FS, FS, 50, 7000, seed + 200)
            a_pos = analytic_signal(Signal(x, FS))
            a_neg = analytic_signal(Signal(-x, FS))
            env = np.hypot(a_pos.real, a_pos.imag)
            eps = 1e-12 * env.max()
            p_pos = cosine_phase(a_pos, eps).values
            p_neg = cosine_phase(a_neg, eps).values
            mask = env > eps
            assert np.max(np.abs(p_pos[mask] + p_neg[mask])) <= 1e-12

    def test_phase_of_cosine_is_cosine(self):
        n = 1600
        t = np.arange(n) / FS
        x = np.cos(2 * np.pi * 500 * t)
        phase = cosine_phase(analytic_signal(Signal(x, FS))).values
        assert np.max(np.abs(phase[EDGE:-EDGE] - x[EDGE:-EDGE])) <= 1e-6

    def test_zero_signal_gives_zero_phase(self):
        phase = cosine_phase(analytic_signal(Signal(np.zeros(512), FS)))
        assert not phase.values.any()

    def test_phase_range(self):
        x = bandlimited_noise(4096, FS, 100, 6000, 11)
        phase = cosine_phase(analytic_signal(Signal(x, FS))).values
        assert phase.min() >= -1.0 and phase.max() <= 1.0

    def test_rejects_nonpositive_eps(self):
        a = analytic_signal(Signal(np.ones(64), FS))
        with pytest.raises(InvalidInputError):
            cosine_phase(a, eps=0.0)

    @pytest.mark.parametrize("eps", (float("nan"), float("inf"), -float("inf"), 0.0, -1.0))
    def test_rejects_eps_not_positive_and_finite(self, eps):
        # nan gave an all-NaN phase and inf an all-zero one
        a = analytic_signal(Signal(np.sin(np.arange(1000) * 0.1), FS))
        with pytest.raises(InvalidInputError):
            cosine_phase(a, eps=eps)
