"""Correctness checks, run outside the timed phase.

For a seeded sample of explanations:

* the batched scores equal ``score_plan(..., method="loop")`` bit for
  bit at the same precision (the program's own equivalence contract);
* they match an independent ``numpy.fft`` occlusion reference within
  :data:`REFERENCE_TOLERANCE` of the largest score;
* the distilled kernel reproduces ``y`` from ``x`` to
  :data:`KERNEL_TOLERANCE`, measured with ``numpy.fft``;
* the top-scoring block is the one holding the planted spike.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import numpy as np

from inputs import PlantedPair

#: Largest |score - numpy reference| allowed, relative to the largest
#: reference score.  Exact and fp32 execution differ from numpy by FFT
#: rounding (measured <= 3e-16); bf16 rounds each masked plane and the
#: kernel spectrum to an 8-bit significand first (measured <= 8e-4).
#: Each bound leaves a margin of more than 10x.
REFERENCE_TOLERANCE = {None: 1e-9, "fp32": 1e-9, "bf16": 1e-2}

#: Largest ||x (*) kernel - y|| / ||y|| for the distilled kernel
#: (measured <= 4e-13).
KERNEL_TOLERANCE = 1e-9


def occlusion_reference(x, kernel, y, block) -> np.ndarray:
    """Eq. 5 l2 block scores computed with ``numpy.fft`` alone."""
    m, n = x.shape
    bh, bw = block
    kernel_spectrum = np.fft.fft2(kernel)
    scores = np.empty((m // bh, n // bw))
    for bi in range(m // bh):
        for bj in range(n // bw):
            masked = x.copy()
            masked[bi * bh:(bi + 1) * bh, bj * bw:(bj + 1) * bw] = 0.0
            convolved = np.real(np.fft.ifft2(np.fft.fft2(masked) * kernel_spectrum))
            scores[bi, bj] = np.sqrt(np.sum((y - convolved) ** 2))
    return scores


def check_explanation(pair: PlantedPair, result, block, precision) -> list[str]:
    """Every check above for one explanation; returns failure messages."""
    from repro.core.masking import MaskSpec, score_plan

    if not finite(result):
        return ["non-finite scores or kernel"]
    failures = []
    scores = np.asarray(result.scores)
    kernel = np.asarray(result.kernel)
    plan = MaskSpec.blocks(pair.x.shape, block)
    looped = score_plan(
        pair.x, kernel, pair.y, plan, method="loop", precision=precision
    )
    if not np.array_equal(looped, scores):
        failures.append("batched scores differ from score_plan(method='loop')")
    reference = occlusion_reference(pair.x, kernel, pair.y, block)
    error = float(np.max(np.abs(reference - scores)) / np.max(np.abs(reference)))
    if error > REFERENCE_TOLERANCE[precision]:
        failures.append(
            f"numpy reference error {error:.3g} > {REFERENCE_TOLERANCE[precision]}"
        )
    rebuilt = np.real(np.fft.ifft2(np.fft.fft2(pair.x) * np.fft.fft2(kernel)))
    residual = float(np.linalg.norm(rebuilt - pair.y) / np.linalg.norm(pair.y))
    if residual > KERNEL_TOLERANCE:
        failures.append(f"kernel residual {residual:.3g} > {KERNEL_TOLERANCE}")
    top = np.unravel_index(int(np.argmax(scores)), scores.shape)
    planted = (pair.spike[0] // block[0], pair.spike[1] // block[1])
    if tuple(int(v) for v in top) != planted:
        failures.append(f"top-1 block {tuple(top)} is not the planted {planted}")
    return failures


def finite(result) -> bool:
    return bool(
        np.all(np.isfinite(result.scores)) and np.all(np.isfinite(result.kernel))
    )
