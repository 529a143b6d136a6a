"""Independent-oracle checks: scipy and large/awkward transform sizes."""

import numpy as np
import pytest

from repro.fft import fft, fft2, fft_circular_convolve2d, ifft, irfft, rfft, rfft2
from repro.fft.fft import (
    _MATMUL_MAX_LENGTH,
    clear_fft_plan_cache,
    fft_plan_cache_info,
)

scipy_fft = pytest.importorskip("scipy.fft")


class TestScipyOracle:
    @pytest.mark.parametrize("n", [64, 100, 127, 128, 243, 251, 256, 1000])
    def test_1d_matches_scipy(self, n):
        """Primes (127, 251), prime powers (243) and composites all take
        the correct code path and agree with an independent library."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), scipy_fft.fft(x), atol=1e-7)

    @pytest.mark.parametrize("shape", [(64, 64), (100, 50), (127, 128), (31, 37)])
    def test_2d_matches_scipy(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape)
        np.testing.assert_allclose(fft2(x), scipy_fft.fft2(x), atol=1e-7)

    @pytest.mark.parametrize("n", [128, 251, 500])
    def test_inverse_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft(x), scipy_fft.ifft(x), atol=1e-9)

    def test_large_power_of_two(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096)
        np.testing.assert_allclose(fft(x), scipy_fft.fft(x), atol=1e-6)

    def test_conv_against_scipy_fftconvolve_circular(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((32, 32))
        k = rng.standard_normal((32, 32))
        expected = np.real(scipy_fft.ifft2(scipy_fft.fft2(x) * scipy_fft.fft2(k)))
        np.testing.assert_allclose(fft_circular_convolve2d(x, k), expected, atol=1e-8)


class TestRealTransformOracles:
    """The half-spectrum hot path against numpy *and* scipy."""

    @pytest.mark.parametrize("n", [64, 100, 127, 128, 243, 251, 256, 1000])
    def test_rfft_matches_numpy_and_scipy(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        ours = rfft(x)
        np.testing.assert_allclose(ours, np.fft.rfft(x), atol=1e-7)
        np.testing.assert_allclose(ours, scipy_fft.rfft(x), atol=1e-7)

    @pytest.mark.parametrize("shape", [(64, 64), (100, 50), (127, 128), (31, 37)])
    def test_rfft2_matches_numpy(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape)
        np.testing.assert_allclose(rfft2(x), np.fft.rfft2(x), atol=1e-7)

    @pytest.mark.parametrize("n", [128, 251, 500, 501])
    def test_irfft_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        spectrum = np.fft.rfft(rng.standard_normal(n))
        np.testing.assert_allclose(
            irfft(spectrum, n=n), np.fft.irfft(spectrum, n=n), atol=1e-9
        )

    def test_large_power_of_two_rfft(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096)
        np.testing.assert_allclose(rfft(x), np.fft.rfft(x), atol=1e-6)


class TestNumericalStability:
    def test_large_dynamic_range(self):
        x = np.array([1e12, 1e-12, -1e12, 1e-12] * 8)
        spectrum = fft(x)
        np.testing.assert_allclose(ifft(spectrum), x, rtol=1e-9)

    def test_long_bluestein_accuracy(self):
        """Bluestein's chirp padding must not degrade for long primes."""
        n = 1031  # prime, past the DFT-matmul cap
        rng = np.random.default_rng(2)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-6)

    @pytest.mark.parametrize("n", [1009, 1023, 1031, 1500])
    def test_accuracy_either_side_of_matmul_cap(self, n):
        """Lengths up to the cap run the DFT matmul, longer ones the
        chirp-z transform; all four 1-D transforms match numpy on both."""
        clear_fft_plan_cache()
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2, n))
        z = x + 1j * rng.standard_normal((2, n))
        np.testing.assert_allclose(fft(z), np.fft.fft(z), atol=1e-6)
        np.testing.assert_allclose(ifft(z), np.fft.ifft(z), atol=1e-9)
        half = rfft(x)
        np.testing.assert_allclose(half, np.fft.rfft(x), atol=1e-6)
        np.testing.assert_allclose(irfft(half, n=n), x, atol=1e-9)
        info = fft_plan_cache_info()
        assert (info["matmul_plans"] > 0) == (n <= _MATMUL_MAX_LENGTH)
        assert (info["bluestein_plans"] > 0) == (n > _MATMUL_MAX_LENGTH)

    def test_dc_only_signal(self):
        x = np.full(64, 3.0)
        spectrum = fft(x)
        assert spectrum[0] == pytest.approx(192.0)
        np.testing.assert_allclose(spectrum[1:], 0.0, atol=1e-10)

    def test_single_tone(self):
        n = 128
        tone = np.exp(2j * np.pi * 5 * np.arange(n) / n)
        spectrum = fft(tone)
        assert abs(spectrum[5]) == pytest.approx(n, rel=1e-10)
        mask = np.ones(n, dtype=bool)
        mask[5] = False
        np.testing.assert_allclose(spectrum[mask], 0.0, atol=1e-9)
