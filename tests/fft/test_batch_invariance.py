"""Batch invariance of the 2-D batch transforms.

A plane's bits must not depend on the batch or chunk it is transformed
in: loop == dense == streamed == pod execution rests on it.  Each check
transforms a plane alone, inside the full batch and inside 37-plane
chunks, and requires identical bits.  The shapes cover every 1-D engine:
the DFT matmul (48x48, 45x30), radix-2 (32x16) and Bluestein past the
matmul cap (2x1031).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fft import fft, fft2_batch, ifft2_batch, irfft2_batch, rfft2_batch
from repro.fft.fft import is_power_of_two

SHAPES = [(48, 48), (45, 30), (32, 16), (2, 1031)]
KINDS = ["fft2", "ifft2", "rfft2", "irfft2"]
CHUNK = 37


def batch_inputs(kind, batch, shape, seed):
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((batch,) + shape)
    if kind == "rfft2":
        return real
    if kind == "irfft2":
        return rfft2_batch(real)  # half spectra of real planes
    return real + 1j * rng.standard_normal(real.shape)


def transform(kind, stack, width):
    if kind == "irfft2":
        return irfft2_batch(stack, n=width)
    return {"fft2": fft2_batch, "ifft2": ifft2_batch, "rfft2": rfft2_batch}[kind](stack)


def assert_batch_invariant(kind, stack, width, chunk=CHUNK):
    full = transform(kind, stack, width)
    for index, plane in enumerate(stack):
        np.testing.assert_array_equal(transform(kind, plane, width), full[index])
    for start in range(0, len(stack), chunk):
        np.testing.assert_array_equal(
            transform(kind, stack[start : start + chunk], width),
            full[start : start + chunk],
        )


class TestBatchInvariance:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("batch", [1, 3, 41])
    def test_alone_full_and_chunked_agree(self, kind, shape, batch):
        stack = batch_inputs(kind, batch, shape, seed=batch * 1000 + shape[1])
        assert_batch_invariant(kind, stack, shape[1])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_non_contiguous_stack(self, kind, shape):
        stack = batch_inputs(kind, 5, shape, seed=shape[0])
        # Same values, transposed memory: every plane is a strided view.
        strided = np.swapaxes(np.ascontiguousarray(np.swapaxes(stack, -1, -2)), -1, -2)
        assert not strided.flags.c_contiguous
        np.testing.assert_array_equal(
            transform(kind, strided, shape[1]), transform(kind, stack, shape[1])
        )
        assert_batch_invariant(kind, strided, shape[1])

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_non_contiguous_column_axis(self, shape):
        """A 1-D transform along axis -2 of a strided stack matches the
        same transform of each contiguous plane."""
        rng = np.random.default_rng(shape[1])
        base = rng.standard_normal((7, shape[1], shape[0]))
        stack = np.swapaxes(base + 1j * rng.standard_normal(base.shape), -1, -2)
        full = fft(stack, axis=-2)
        for index in range(len(stack)):
            plane = np.ascontiguousarray(stack[index])
            np.testing.assert_array_equal(fft(plane, axis=-2), full[index])
            np.testing.assert_array_equal(fft(plane, axis=0), full[index])

    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=40),
        batch=st.integers(min_value=1, max_value=9),
        chunk=st.integers(min_value=1, max_value=9),
        kind=st.sampled_from(KINDS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_non_power_of_two_shapes(self, rows, cols, batch, chunk, kind, seed):
        assume(not (is_power_of_two(rows) and is_power_of_two(cols)))
        stack = batch_inputs(kind, batch, (rows, cols), seed)
        assert_batch_invariant(kind, stack, cols, chunk=chunk)
