"""Unit and property tests for the from-scratch 1-D FFT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import bit_reversal_permutation, fft, ifft, is_power_of_two, rfft
from repro.fft.fft import (
    _fft_bluestein,
    clear_fft_plan_cache,
    fft_plan_cache_info,
    next_power_of_two,
)

POWER_OF_TWO_SIZES = [1, 2, 4, 8, 16, 32, 64, 128, 256]
BLUESTEIN_SIZES = [3, 5, 6, 7, 9, 10, 12, 15, 17, 31, 33, 100]


class TestPowersOfTwoPath:
    @pytest.mark.parametrize("n", POWER_OF_TWO_SIZES)
    def test_matches_numpy_real_input(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9)

    @pytest.mark.parametrize("n", POWER_OF_TWO_SIZES)
    def test_matches_numpy_complex_input(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9)

    def test_batched_input_along_last_axis(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3, 16))
        np.testing.assert_allclose(fft(x), np.fft.fft(x, axis=-1), atol=1e-9)

    def test_axis_argument(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 5))
        np.testing.assert_allclose(fft(x, axis=0), np.fft.fft(x, axis=0), atol=1e-9)


class TestBluesteinPath:
    """Non-power-of-two lengths: through :func:`fft`, which serves these
    short lengths with the DFT matmul, and through the chirp-z kernel
    that takes over past the matmul cap."""

    @pytest.mark.parametrize("n", BLUESTEIN_SIZES)
    def test_chirp_z_kernel_matches_numpy(self, n):
        rng = np.random.default_rng(n + 11)
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        np.testing.assert_allclose(_fft_bluestein(x), np.fft.fft(x), atol=1e-8)

    @pytest.mark.parametrize("n", BLUESTEIN_SIZES)
    def test_matches_numpy_real_input(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-8)

    @pytest.mark.parametrize("n", BLUESTEIN_SIZES)
    def test_matches_numpy_complex_input(self, n):
        rng = np.random.default_rng(n + 7)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-8)

    def test_batched_bluestein(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 12))
        np.testing.assert_allclose(fft(x), np.fft.fft(x, axis=-1), atol=1e-8)


class TestInverse:
    @pytest.mark.parametrize("n", POWER_OF_TWO_SIZES + BLUESTEIN_SIZES)
    @pytest.mark.parametrize("norm", ["backward", "ortho", "forward"])
    def test_round_trip(self, n, norm):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft(fft(x, norm=norm), norm=norm), x, atol=1e-8)

    @pytest.mark.parametrize("n", [4, 12, 16])
    def test_matches_numpy_ifft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft(x), np.fft.ifft(x), atol=1e-9)


class TestNormalization:
    @pytest.mark.parametrize("norm", ["backward", "ortho", "forward"])
    def test_matches_numpy_norm(self, norm):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16)
        np.testing.assert_allclose(
            fft(x, norm=norm), np.fft.fft(x, norm=norm), atol=1e-9
        )

    def test_ortho_preserves_energy(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64)
        spectrum = fft(x, norm="ortho")
        np.testing.assert_allclose(
            np.sum(np.abs(spectrum) ** 2), np.sum(np.abs(x) ** 2), rtol=1e-10
        )


class TestValidation:
    def test_empty_axis_raises(self):
        with pytest.raises(ValueError):
            fft(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            ifft(np.zeros(0))

    def test_scalar_raises(self):
        with pytest.raises(ValueError):
            fft(np.float64(3.0))

    def test_bad_norm_raises(self):
        with pytest.raises(ValueError):
            fft(np.ones(4), norm="unitary")
        with pytest.raises(ValueError):
            ifft(np.ones(4), norm="unitary")


class TestHelpers:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
        assert not is_power_of_two(-4)

    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(5) == 8
        assert next_power_of_two(16) == 16
        with pytest.raises(ValueError):
            next_power_of_two(0)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_bit_reversal_is_an_involution(self, n):
        perm = bit_reversal_permutation(n)
        np.testing.assert_array_equal(perm[perm], np.arange(n))

    def test_bit_reversal_known_case(self):
        np.testing.assert_array_equal(
            bit_reversal_permutation(8), [0, 4, 2, 6, 1, 5, 3, 7]
        )

    def test_bit_reversal_requires_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reversal_permutation(6)

    def test_plan_cache_populates_and_clears(self):
        clear_fft_plan_cache()
        fft(np.ones(32))
        rfft(np.ones(32))
        rfft(np.ones(12))
        info = fft_plan_cache_info()
        assert info["twiddle_plans"] >= 1
        assert info["bit_reversal_tables"] >= 1
        assert info["rfft_plans"] >= 1
        assert info["matmul_plans"] == 1
        clear_fft_plan_cache()
        info = fft_plan_cache_info()
        assert info["twiddle_plans"] == 0
        assert info["bit_reversal_tables"] == 0
        assert info["rfft_plans"] == 0
        assert info["matmul_plans"] == 0
        # Registered sibling caches (the kernel-spectrum cache) are
        # covered by the same entry points.
        assert info["kernel_spectra"] == 0


class TestProperties:
    @given(
        n=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_numpy_for_any_length(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-7)

    @given(
        n=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_for_any_length(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-7)

    @given(
        n=st.sampled_from([4, 8, 16, 12, 20]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        alpha, beta = rng.standard_normal(2)
        np.testing.assert_allclose(
            fft(alpha * x + beta * y), alpha * fft(x) + beta * fft(y), atol=1e-8
        )

    @given(
        n=st.sampled_from([4, 8, 16, 32, 12, 30]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        spectrum = fft(x)
        np.testing.assert_allclose(
            np.sum(np.abs(spectrum) ** 2) / n, np.sum(x**2), rtol=1e-8
        )

    @given(
        n=st.sampled_from([8, 16, 12, 24]),
        shift=st.integers(min_value=0, max_value=23),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_theorem(self, n, shift, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        shifted_spectrum = fft(np.roll(x, shift % n))
        phase = np.exp(-2j * np.pi * np.arange(n) * (shift % n) / n)
        np.testing.assert_allclose(shifted_spectrum, fft(x) * phase, atol=1e-8)

    @given(
        n=st.sampled_from([4, 8, 16, 10, 18]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_real_input_conjugate_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        spectrum = fft(x)
        # X[n-k] == conj(X[k]) for real input.
        for k in range(1, n):
            np.testing.assert_allclose(
                spectrum[n - k], np.conj(spectrum[k]), atol=1e-8
            )
