"""1-D fast Fourier transforms implemented from scratch.

Three engines cover all input lengths, chosen from the length alone:

* power-of-two lengths use an **iterative radix-2 Cooley-Tukey** kernel
  (decimation in time with an explicit bit-reversal permutation), fully
  vectorized over leading batch axes;
* other lengths up to 1024 (``_MATMUL_MAX_LENGTH``) multiply by a cached
  **DFT matrix** -- the paper's own formulation (Eq. 10-13), the form a
  TPU MXU evaluates -- with one BLAS matmul per trailing plane;
* longer non-power-of-two lengths use **Bluestein's chirp-z
  algorithm**, which re-expresses the DFT as a circular convolution of
  power-of-two length and reuses the radix-2 kernel; its memory stays
  O(n) where a dense table would grow as n^2.

Real input additionally gets :func:`rfft` / :func:`irfft`: the DFT of a
real signal is Hermitian (``X[n-k] == conj(X[k])``), so only the
``n//2 + 1`` leading bins are stored and computed.  Power-of-two
lengths pack even/odd samples into one complex signal of half the
length and untangle the two interleaved spectra afterwards; matmul
lengths multiply real samples by interleaved cos/sin tables, so the
real product *is* the complex half spectrum.  The half-spectrum path is
the host hot path of every real occlusion plane.

A plane's bits never depend on the batch around it: radix-2 and
Bluestein are elementwise over the batch, and the matmul engine issues
one GEMM per trailing ``(rows, n)`` plane (a single tall GEMM would
not do: BLAS edge tiles round differently).  Loop, dense, streamed and
pod execution rely on this.

The radix-2 and Bluestein inverses use the conjugation identity
``ifft(x) = conj(fft(conj(x))) / n`` so a single forward kernel serves
both directions; the matmul inverse multiplies by the synthesis matrix.

Normalization follows :mod:`repro.fft.dft_matrix`: the default
``norm="backward"`` matches ``numpy.fft`` and keeps the convolution
theorem scale-free, which the distillation solve (paper Eq. 4) requires.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.fft.dft_matrix import dft_matrix, idft_matrix

_VALID_NORMS = ("backward", "ortho", "forward")

# Longest non-power-of-two length served by the dense DFT matmul.  One
# complex128 table of this size is 16 MiB, and tables grow as n^2 where
# Bluestein's memory grows as n.  Speed agrees with the cap: on a 2-core
# host with OpenBLAS a single row breaks even near n = 1000-1500, though
# batches of rows still favour the matmul at n = 2000.
_MATMUL_MAX_LENGTH = 1024

# Transform plans, keyed by length.  Computing twiddles is O(n) per
# stage, and sweeps re-run the same lengths, so a tiny plan cache is a
# large constant-factor win.  Every lookup is a single critical section
# (compute-inside-lock); the payloads are small and plans for one
# length are only ever built once per process.
_TWIDDLE_CACHE: dict[int, list[np.ndarray]] = {}
_BITREV_CACHE: dict[int, np.ndarray] = {}
_RFFT_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
_BLUESTEIN_CACHE: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
_MATMUL_CACHE: dict[tuple[str, int], np.ndarray] = {}
_PLAN_LOCK = threading.Lock()

# Lifetime hit/miss counters per plan cache (the metrics-registry
# surface).  Plan-cache counters mutate under _PLAN_LOCK alongside
# their lookups; the per-thread workspace counters increment lock-free
# on the hot path (a single dict-int bump under the GIL).
_PLAN_COUNTERS: dict[str, int] = {
    "twiddle_plan_hits": 0,
    "twiddle_plan_misses": 0,
    "bit_reversal_hits": 0,
    "bit_reversal_misses": 0,
    "rfft_plan_hits": 0,
    "rfft_plan_misses": 0,
    "bluestein_plan_hits": 0,
    "bluestein_plan_misses": 0,
    "matmul_plan_hits": 0,
    "matmul_plan_misses": 0,
    "radix2_workspace_hits": 0,
    "radix2_workspace_misses": 0,
}

# Sibling caches (e.g. the kernel-spectrum cache in repro.fft.spectra)
# register (info_fn, clear_fn) hooks here so fft_plan_cache_info() /
# clear_fft_plan_cache() stay the single cache-management entry points
# without this low-level module importing the higher layers.
_AUX_CACHES: list[tuple] = []

# Radix-2 ping-pong workspaces, keyed by transform shape and kept
# per-thread (no lock on the hot path, no cross-thread aliasing).
# Repeated-shape waves -- every fleet wave streams equal-shape planes --
# otherwise re-allocate two complex128 buffers per transform; the
# internal rFFT/Bluestein call sites opt in via ``reuse=True`` at points
# where the returned buffer is consumed before the next same-shape call.
# Bounded: a small LRU of shapes, and buffers past the byte cap are not
# cached (allocation cost is negligible relative to such transforms).
_WORKSPACE_MAX_ENTRIES = 8
_WORKSPACE_MAX_BYTES = 1 << 24  # complex128 bytes per buffer
_WORKSPACES = threading.local()


def _radix2_workspace(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """This thread's (src, dst) complex128 ping-pong pair for ``shape``."""
    store = getattr(_WORKSPACES, "buffers", None)
    if store is None:
        store = _WORKSPACES.buffers = {}
    pair = store.pop(shape, None)
    if pair is None:
        _PLAN_COUNTERS["radix2_workspace_misses"] += 1
        if len(store) >= _WORKSPACE_MAX_ENTRIES:
            store.pop(next(iter(store)))  # evict least recently used
        pair = (
            np.empty(shape, dtype=np.complex128),
            np.empty(shape, dtype=np.complex128),
        )
    else:
        _PLAN_COUNTERS["radix2_workspace_hits"] += 1
    store[shape] = pair  # (re-)insert last: most recently used
    return pair


def register_aux_plan_cache(info_fn, clear_fn) -> None:
    """Register a sibling cache with the plan-cache info/clear entry points."""
    _AUX_CACHES.append((info_fn, clear_fn))


def is_power_of_two(n: int) -> bool:
    """Return True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Return the smallest power of two ``>= n``."""
    if n <= 0:
        raise ValueError(f"expected a positive length, got {n}")
    return 1 << (int(n) - 1).bit_length()


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Return the bit-reversal index permutation for a power-of-two ``n``.

    Element ``i`` of the output holds the integer whose ``log2(n)``-bit
    binary representation is the reverse of ``i``'s.
    """
    if not is_power_of_two(n):
        raise ValueError(f"bit reversal requires a power-of-two length, got {n}")
    with _PLAN_LOCK:
        cached = _BITREV_CACHE.get(n)
        if cached is None:
            _PLAN_COUNTERS["bit_reversal_misses"] += 1
            bits = n.bit_length() - 1
            reversed_indices = np.zeros(n, dtype=np.int64)
            work = np.arange(n, dtype=np.int64)
            for _ in range(bits):
                reversed_indices = (reversed_indices << 1) | (work & 1)
                work >>= 1
            reversed_indices.setflags(write=False)
            _BITREV_CACHE[n] = cached = reversed_indices
        else:
            _PLAN_COUNTERS["bit_reversal_hits"] += 1
    return cached


def _twiddle_plan(n: int) -> list[np.ndarray]:
    """Per-stage twiddle factors ``exp(-2j*pi*k/size)`` for radix-2."""
    with _PLAN_LOCK:
        cached = _TWIDDLE_CACHE.get(n)
        if cached is None:
            _PLAN_COUNTERS["twiddle_plan_misses"] += 1
            cached = []
            size = 2
            while size <= n:
                half = size // 2
                stage = np.exp(-2j * np.pi * np.arange(half) / size)
                stage.setflags(write=False)
                cached.append(stage)
                size *= 2
            _TWIDDLE_CACHE[n] = cached
        else:
            _PLAN_COUNTERS["twiddle_plan_hits"] += 1
    return cached


def _rfft_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index and twiddle tables for the packed real transform of length ``n``.

    ``wrap[k] = k mod half`` and ``mirror[k] = -k mod half`` address the
    half-length spectrum and its conjugate partner for ``k = 0..half``;
    ``forward``/``inverse`` are ``exp(-+2j*pi*k/n)`` untangling twiddles.
    """
    with _PLAN_LOCK:
        cached = _RFFT_CACHE.get(n)
        if cached is None:
            _PLAN_COUNTERS["rfft_plan_misses"] += 1
            half = n // 2
            wrap = np.arange(half + 1) % half
            mirror = (-np.arange(half + 1)) % half
            forward = np.exp(-2j * np.pi * np.arange(half + 1) / n)
            inverse = np.exp(2j * np.pi * np.arange(half) / n)
            for table in (wrap, mirror, forward, inverse):
                table.setflags(write=False)
            _RFFT_CACHE[n] = cached = (wrap, mirror, forward, inverse)
        else:
            _PLAN_COUNTERS["rfft_plan_hits"] += 1
    return cached


def _fft_radix2(x: np.ndarray, reuse: bool = False) -> np.ndarray:
    """Forward unnormalized FFT along the last axis; length must be 2^k.

    Allocation-lean: two ping-pong buffers are allocated once and every
    butterfly stage writes through ``out=`` ufunc calls -- no per-stage
    concatenation or temporaries.  The arithmetic (multiply by the stage
    twiddles, then one add and one subtract) is element-for-element the
    same as the textbook form, so results are bit-identical to it.

    ``reuse=True`` draws the ping-pong pair from the per-thread
    workspace cache instead of allocating, so repeated same-shape
    transforms (every chunk of a fleet wave) stop paying two fresh
    complex128 buffers each.  The *returned array is one of the cached
    buffers*: a later same-shape ``reuse=True`` call overwrites it, so
    only internal call sites that consume the result into new storage
    before the next transform may opt in -- anything returned to users
    (the public :func:`fft`) must keep ``reuse=False``.
    """
    n = x.shape[-1]
    if n == 1:
        return x.astype(np.complex128, order="C", copy=True)
    perm = bit_reversal_permutation(n)
    # C-ordered buffers regardless of input strides: downstream consumers
    # (and numpy's layout-sensitive pairwise summation) see the same
    # contiguous planes whatever axis order the caller transformed in.
    if reuse and 16 * x.size <= _WORKSPACE_MAX_BYTES:
        src, dst = _radix2_workspace(x.shape)
        if x is src or x.base is src or x is dst or x.base is dst:
            # Input aliases the workspace: the fancy-indexed RHS
            # materializes a temporary first, so this stays correct.
            src[...] = x[..., perm]
        elif x.dtype == np.complex128:
            np.take(x, perm, axis=-1, out=src)
        elif x.dtype == np.float64:
            np.take(x, perm, axis=-1, out=src.real)
            src.imag[...] = 0.0
        else:
            src[...] = x[..., perm]
    else:
        src = x[..., perm].astype(np.complex128, order="C")
        dst = np.empty(src.shape, dtype=np.complex128)
    for stage_twiddles in _twiddle_plan(n):
        half = stage_twiddles.shape[0]
        size = half * 2
        shaped_src = src.reshape(src.shape[:-1] + (n // size, size))
        shaped_dst = dst.reshape(dst.shape[:-1] + (n // size, size))
        src_even = shaped_src[..., :half]
        src_odd = shaped_src[..., half:]
        dst_even = shaped_dst[..., :half]
        dst_odd = shaped_dst[..., half:]
        np.multiply(src_odd, stage_twiddles, out=dst_odd)
        np.add(src_even, dst_odd, out=dst_even)
        np.subtract(src_even, dst_odd, out=dst_odd)
        src, dst = dst, src
    return src


def _bluestein_plan(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Cached chirp tables for the length-``n`` chirp-z transform.

    Returns ``(padded_len, chirp, b_spectrum)``: the power-of-two
    convolution length, the chirp ``exp(-j*pi*k^2/n)``, and the
    precomputed forward transform of the wrapped conjugate chirp (the
    convolution's fixed factor -- caching it drops one of the three
    radix-2 transforms from every Bluestein call).
    """
    with _PLAN_LOCK:
        cached = _BLUESTEIN_CACHE.get(n)
        # Counted at the first lookup: a racing duplicate build records
        # a second miss, matching the duplicated work it performs.
        if cached is None:
            _PLAN_COUNTERS["bluestein_plan_misses"] += 1
        else:
            _PLAN_COUNTERS["bluestein_plan_hits"] += 1
    if cached is None:
        # Built outside the lock: the b transform below takes the same
        # (non-reentrant) lock for its twiddle and bit-reversal plans.
        # A racing duplicate build is harmless -- both produce the same
        # read-only tables and last-write-wins.
        k = np.arange(n)
        # exp(-j*pi*k^2/n); mod 2n on k^2 keeps the phase small.
        chirp = np.exp(-1j * np.pi * np.mod(k * k, 2 * n) / n)
        padded_len = next_power_of_two(2 * n - 1)
        b = np.zeros(padded_len, dtype=np.complex128)
        b[:n] = np.conj(chirp)
        b[padded_len - (n - 1):] = np.conj(chirp[1:][::-1])
        b_spectrum = _fft_radix2(b)
        for table in (chirp, b_spectrum):
            table.setflags(write=False)
        cached = (padded_len, chirp, b_spectrum)
        with _PLAN_LOCK:
            _BLUESTEIN_CACHE[n] = cached
    return cached


def _fft_bluestein(x: np.ndarray) -> np.ndarray:
    """Forward unnormalized DFT of arbitrary length via the chirp-z trick.

    Writing ``mk = (m^2 + k^2 - (k-m)^2) / 2`` turns the DFT sum into a
    circular convolution with the chirp sequence ``exp(j*pi*k^2/n)``,
    which we evaluate at a padded power-of-two length with the radix-2
    kernel.  The chirp and the convolution's fixed spectrum come from
    the per-length plan cache, so a repeated length pays two radix-2
    transforms, not three.
    """
    n = x.shape[-1]
    padded_len, chirp, b_spectrum = _bluestein_plan(n)

    a = np.zeros(x.shape[:-1] + (padded_len,), dtype=np.complex128)
    a[..., :n] = x * chirp

    # Workspace reuse is safe: the product below lands in fresh storage
    # before the inverse transform can overwrite the buffer, and the
    # convolution's fixed factor is cached (never transformed here).
    spectrum = _fft_radix2(a, reuse=True) * b_spectrum
    # Inverse FFT of the product via conjugation (still power-of-two).
    convolved = np.conj(_fft_radix2(np.conj(spectrum), reuse=True)) / padded_len
    return convolved[..., :n] * chirp


def _uses_matmul(n: int) -> bool:
    """Whether length ``n`` takes the dense DFT-matmul engine."""
    return n <= _MATMUL_MAX_LENGTH and not is_power_of_two(n)


def _matmul_plan(kind: str, n: int) -> np.ndarray:
    """Cached read-only DFT table of ``kind`` for the length-``n`` matmul engine.

    * ``"forward"`` -- ``W_n = exp(-2j*pi*m*k/n)`` (:func:`dft_matrix`);
    * ``"inverse"`` -- ``conj(W_n) / n`` (:func:`idft_matrix`);
    * ``"rfft"`` -- ``(n, 2*bins)`` real: the first ``bins = n//2 + 1``
      columns of ``W_n`` with real (cos) and imaginary (-sin) parts
      interleaved, so ``x @ table`` of real ``x`` is the half spectrum
      laid out as complex128;
    * ``"irfft"`` -- ``(2*bins, n)`` real: the weighted inverse halves.
      With ``w_k = 2`` for the bins whose mirror is implied (1 for the
      DC and, at even ``n``, the Nyquist bin), row ``2k`` holds
      ``w_k cos(2*pi*k*j/n) / n`` and row ``2k+1`` holds
      ``-w_k sin(2*pi*k*j/n) / n``, so the interleaved half spectrum
      times the table is the real signal -- no Hermitian completion.
    """
    key = (kind, n)
    with _PLAN_LOCK:
        cached = _MATMUL_CACHE.get(key)
        if cached is None:
            _PLAN_COUNTERS["matmul_plan_misses"] += 1
            bins = n // 2 + 1
            if kind == "forward":
                cached = dft_matrix(n)
            elif kind == "inverse":
                cached = idft_matrix(n)
            elif kind == "rfft":
                half = dft_matrix(n)[:, :bins]
                cached = np.empty((n, 2 * bins))
                cached[:, 0::2] = half.real
                cached[:, 1::2] = half.imag
            else:
                weights = np.full(bins, 2.0 / n)
                weights[0] = 1.0 / n
                if n % 2 == 0:
                    weights[-1] = 1.0 / n
                # W_n's real part is cos and its imaginary part -sin.
                half = dft_matrix(n)[:bins]
                cached = np.empty((2 * bins, n))
                cached[0::2] = weights[:, None] * half.real
                cached[1::2] = weights[:, None] * half.imag
            cached.setflags(write=False)
            _MATMUL_CACHE[key] = cached
        else:
            _PLAN_COUNTERS["matmul_plan_hits"] += 1
    return cached


def _dft_matmul(array: np.ndarray, axis: int, table: np.ndarray) -> np.ndarray:
    """Multiply ``array`` along ``axis`` by the symmetric DFT ``table``.

    Numpy issues one GEMM per trailing plane on C-contiguous operands.
    A column transform (axis -2) is taken as ``table @ planes`` on the
    caller's layout -- the table is symmetric -- so no transposed copy
    is made; every other axis is moved last and multiplied from the
    right.
    """
    if array.ndim >= 2 and axis in (-2, array.ndim - 2):
        return table @ np.ascontiguousarray(array, dtype=np.complex128)
    moved = np.ascontiguousarray(np.moveaxis(array, axis, -1), dtype=np.complex128)
    return np.moveaxis(moved @ table, -1, axis)


def _forward_scale(n: int, norm: str) -> float:
    if norm == "backward":
        return 1.0
    if norm == "ortho":
        return 1.0 / np.sqrt(n)
    return 1.0 / n


def fft(x: np.ndarray, axis: int = -1, norm: str = "backward") -> np.ndarray:
    """Compute the 1-D DFT of ``x`` along ``axis``.

    Accepts real or complex input of any length and any batch shape.
    Power-of-two lengths take the radix-2 path, other lengths up to
    ``_MATMUL_MAX_LENGTH`` the DFT matmul, and longer ones Bluestein.
    """
    if norm not in _VALID_NORMS:
        raise ValueError(f"norm must be one of {_VALID_NORMS}, got {norm!r}")
    array = np.asarray(x)
    if array.ndim == 0:
        raise ValueError("fft requires at least a 1-D input")
    n = array.shape[axis]
    if n == 0:
        raise ValueError("fft of an empty axis is undefined")
    if _uses_matmul(n):
        result = _dft_matmul(array, axis, _matmul_plan("forward", n))
    else:
        moved = np.moveaxis(array, axis, -1)
        kernel = _fft_radix2 if is_power_of_two(n) else _fft_bluestein
        result = np.moveaxis(kernel(moved), -1, axis)
    scale = _forward_scale(n, norm)
    if scale != 1.0:
        result = result * scale
    return result


def ifft(x: np.ndarray, axis: int = -1, norm: str = "backward") -> np.ndarray:
    """Inverse 1-D DFT, the exact inverse of :func:`fft` for every norm."""
    if norm not in _VALID_NORMS:
        raise ValueError(f"norm must be one of {_VALID_NORMS}, got {norm!r}")
    array = np.asarray(x)
    if array.ndim == 0:
        raise ValueError("ifft requires at least a 1-D input")
    n = array.shape[axis]
    if n == 0:
        raise ValueError("ifft of an empty axis is undefined")
    if _uses_matmul(n):
        # The synthesis table already carries the backward 1/n.
        result = _dft_matmul(array, axis, _matmul_plan("inverse", n))
        rescale = 1.0 / _forward_scale(n, norm)
        return result * rescale if rescale != 1.0 else result
    unnormalized = np.conj(fft(np.conj(array), axis=axis, norm="backward"))
    if norm == "backward":
        return unnormalized / n
    if norm == "ortho":
        return unnormalized / np.sqrt(n)
    return unnormalized


def _rfft_packed(x: np.ndarray) -> np.ndarray:
    """Unnormalized half spectrum of real input; length must be 2^k, >= 2.

    Packs even samples into the real and odd samples into the imaginary
    lane of one half-length complex signal, transforms once, and
    untangles: with ``Z = fft(x[0::2] + 1j*x[1::2])``,

        E_k = (Z_k + conj(Z_{-k})) / 2,   O_k = -j (Z_k - conj(Z_{-k})) / 2,
        X_k = E_k + exp(-2j*pi*k/n) O_k          for k = 0..n/2

    -- one complex FFT of length ``n/2`` instead of length ``n``.
    """
    n = x.shape[-1]
    wrap, mirror, forward, _ = _rfft_plan(n)
    packed = x[..., 0::2] + 1j * x[..., 1::2]
    # Workspace reuse is safe: the fancy-indexed wrap/mirror gathers
    # below copy the spectrum into fresh arrays before any later
    # transform can overwrite the buffer.
    spectrum = _fft_radix2(packed, reuse=True)
    wrapped = spectrum[..., wrap]
    mirrored = np.conj(spectrum[..., mirror])
    even = 0.5 * (wrapped + mirrored)
    odd = -0.5j * (wrapped - mirrored)
    return even + forward * odd


def _irfft_packed(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Real signal from an unnormalized half spectrum; ``n`` must be 2^k, >= 2.

    Inverts :func:`_rfft_packed`: recovers the even/odd half-length
    spectra from the Hermitian half spectrum (using
    ``conj(W^{n/2-k}) == -W^k``), rebuilds the packed complex signal
    with one half-length inverse transform, and de-interleaves.
    """
    half = n // 2
    _, _, _, inverse = _rfft_plan(n)
    head = spectrum[..., :half]
    mirrored = np.conj(spectrum[..., half:0:-1])
    even = 0.5 * (head + mirrored)
    odd = 0.5 * (head - mirrored) * inverse
    packed = even + 1j * odd
    # np.conj allocates, so the workspace buffer is consumed immediately.
    signal = np.conj(_fft_radix2(np.conj(packed), reuse=True)) / half
    out = np.empty(spectrum.shape[:-1] + (n,), dtype=np.float64)
    out[..., 0::2] = signal.real
    out[..., 1::2] = signal.imag
    return out


def rfft(x: np.ndarray, axis: int = -1, norm: str = "backward") -> np.ndarray:
    """1-D DFT of **real** input: the ``n//2 + 1`` non-redundant bins.

    For real signals the full spectrum is Hermitian
    (``X[n-k] == conj(X[k])``), so this returns only bins ``0..n//2``
    along ``axis`` -- half the storage, and for power-of-two lengths
    half the transform work via the even/odd packing trick.  Matmul
    lengths multiply by the real cos/sin half table (one real GEMM per
    plane, no complex upcast); longer lengths slice the Bluestein full
    transform.  Complex input is rejected (use :func:`fft`).
    """
    if norm not in _VALID_NORMS:
        raise ValueError(f"norm must be one of {_VALID_NORMS}, got {norm!r}")
    array = np.asarray(x)
    if np.iscomplexobj(array):
        raise ValueError("rfft requires real input; use fft for complex signals")
    if array.ndim == 0:
        raise ValueError("rfft requires at least a 1-D input")
    if array.shape[axis] == 0:
        raise ValueError("rfft of an empty axis is undefined")
    moved = np.moveaxis(array, axis, -1)
    n = moved.shape[-1]
    if n == 1:
        result = moved.astype(np.complex128)
    elif is_power_of_two(n):
        result = _rfft_packed(moved)
    elif _uses_matmul(n):
        real = np.ascontiguousarray(moved, dtype=np.float64)
        result = (real @ _matmul_plan("rfft", n)).view(np.complex128)
    else:
        result = _fft_bluestein(moved)[..., : n // 2 + 1]
    scale = _forward_scale(n, norm)
    if scale != 1.0:
        result = result * scale
    return np.moveaxis(result, -1, axis)


def irfft(
    x: np.ndarray, n: int | None = None, axis: int = -1, norm: str = "backward"
) -> np.ndarray:
    """Real signal of length ``n`` from its ``n//2 + 1`` half-spectrum bins.

    The exact inverse of :func:`rfft` for every norm.  ``n`` defaults to
    ``2 * (bins - 1)`` (an even length); pass it explicitly to recover
    odd lengths; it must be an integer with ``n//2 + 1 == bins``.
    Power-of-two lengths take the packed inverse, and matmul lengths
    multiply the half spectrum by the weighted inverse half table (one
    real GEMM per plane).  Longer lengths reconstruct the full Hermitian
    spectrum and run the complex inverse transform.
    """
    if norm not in _VALID_NORMS:
        raise ValueError(f"norm must be one of {_VALID_NORMS}, got {norm!r}")
    array = np.asarray(x)
    if array.ndim == 0:
        raise ValueError("irfft requires at least a 1-D input")
    bins = array.shape[axis]
    if bins == 0:
        raise ValueError("irfft of an empty axis is undefined")
    if n is None:
        n = 2 * (bins - 1) if bins > 1 else 1
    if int(n) != n:
        raise ValueError(f"irfft output length must be an integer, got {n!r}")
    n = int(n)
    if n <= 0 or n // 2 + 1 != bins:
        raise ValueError(
            f"irfft output length {n} is inconsistent with {bins} spectral "
            f"bins (need n // 2 + 1 == {bins})"
        )
    moved = np.moveaxis(array, axis, -1)
    if n == 1:
        result = np.real(moved).astype(np.float64)
    elif is_power_of_two(n) or _uses_matmul(n):
        # Undo the forward norm first; both inverses are exact for
        # unnormalized (backward-convention) spectra.
        scale = _forward_scale(n, norm)
        if scale != 1.0:
            moved = moved / scale
        if is_power_of_two(n):
            result = _irfft_packed(moved, n)
        else:
            spectrum = np.ascontiguousarray(moved, dtype=np.complex128)
            result = spectrum.view(np.float64) @ _matmul_plan("irfft", n)
    else:
        half = n // 2
        tail = np.conj(moved[..., 1 : n - half])[..., ::-1]
        full = np.concatenate([moved, tail], axis=-1)
        result = ifft(full, axis=-1, norm=norm).real
    return np.moveaxis(result, -1, axis)


def fft_plan_cache_info() -> dict[str, int]:
    """Entry counts and hit/miss counters of every FFT-layer plan cache.

    Covers the radix-2 twiddle plans, bit-reversal tables, rFFT
    untangling plans, Bluestein chirp plans and DFT-matmul tables held
    here -- each with its lifetime ``*_hits`` /
    ``*_misses`` counters -- plus any registered sibling cache (the
    kernel-spectrum cache of :mod:`repro.fft.spectra`).
    """
    with _PLAN_LOCK:
        info = {
            "twiddle_plans": len(_TWIDDLE_CACHE),
            "bit_reversal_tables": len(_BITREV_CACHE),
            "rfft_plans": len(_RFFT_CACHE),
            "bluestein_plans": len(_BLUESTEIN_CACHE),
            "matmul_plans": len(_MATMUL_CACHE),
            # Per-thread: counts the calling thread's workspace shapes.
            "radix2_workspaces": len(getattr(_WORKSPACES, "buffers", {})),
        }
        info.update(_PLAN_COUNTERS)
    for aux_info, _ in _AUX_CACHES:
        info.update(aux_info())
    return info


def clear_fft_plan_cache() -> None:
    """Drop all cached FFT plans (and registered sibling caches).

    Also zeros the hit/miss counters, so tests and benchmark sections
    can measure cache behaviour from a clean slate.
    """
    with _PLAN_LOCK:
        _TWIDDLE_CACHE.clear()
        _BITREV_CACHE.clear()
        _RFFT_CACHE.clear()
        _BLUESTEIN_CACHE.clear()
        _MATMUL_CACHE.clear()
        for key in _PLAN_COUNTERS:
            _PLAN_COUNTERS[key] = 0
    getattr(_WORKSPACES, "buffers", {}).clear()
    for _, aux_clear in _AUX_CACHES:
        aux_clear()
