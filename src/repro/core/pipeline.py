"""End-to-end explanation pipeline: the workload Table II times.

For every input-output pair the paper's interpretation step is:

1. **distill**: solve ``X (*) K = Y`` in the Fourier domain (one
   closed-form pass -- Section III-B);
2. **interpret**: compute contribution factors by re-running the
   distilled model with features masked (Eq. 5), at the granularity the
   scenario calls for (blocks for images, columns for trace tables).

:class:`ExplanationPipeline` executes exactly that against any
:class:`~repro.hw.device.Device` and reports *simulated seconds*, the
quantity Table II compares across CPU/GPU/TPU.  Two orthogonal axes
control the execution structure:

* ``method`` -- how one pair's masks execute.  ``"batched"`` (default)
  scores the pair's whole :class:`~repro.core.masking.MaskPlan` as one
  batched program (kernel spectrum computed once, no per-mask host
  round trips); ``"loop"`` preserves the paper's measured execution --
  one launch per masked feature -- so eager backends pay their per-op
  overheads and the TPU pays per-mask round trips.
* ``fusion`` -- how *pairs* execute relative to each other.
  ``"wave"`` (default) hands the batch to the
  :class:`~repro.core.fleet.FleetExecutor`: pairs of equal plane shape
  fuse into scheduler waves, each wave scored -- mask rows *and* the
  per-pair unmasked residual planes -- by one cross-pair batched
  convolution inside one ``device.program`` scope, i.e. one dispatch
  per wave at fleet scale.  ``"pair"`` preserves the historical
  one-program-scope-per-pair execution (with its eager residual
  convolution) for equivalence tests and Table II regeneration.
  Fusion only restructures the batched method; ``method="loop"`` is
  inherently pair-at-a-time and always runs per pair.

Wave fusion is additionally *streaming* and *pipelined*: each wave's
mask stack is generated lazily and convolved in ``chunk_rows``-bounded
chunks (peak memory ``O(chunk_rows * M * N)`` however many masks the
fleet fuses), and wave ``i+1``'s dispatch + infeed overlaps wave
``i``'s compute, crediting the hidden host-link time back as a negative
``infeed_overlap`` ledger row.

A third orthogonal axis, ``precision``, selects the numeric mode of the
interpretation convolutions (``"fp64"``/``"fp32"`` exact, ``"bf16"``
rounding, ``"int8"`` per-plane symmetric quantization -- parsed by the
single :func:`repro.hw.quantize.precision_spec` entry point): masked
planes and residual rows quantize spatially, kernel spectra per complex
component, the distillation solve stays exact.  Because the rounding is
strictly per-plane, scores and residuals remain bit-identical along
method/fusion/streaming/pipelining *at the same precision* -- a
quantized wave matches a quantized loop exactly -- while the TPU cost
model prices the batched transforms with the MXU cycle hooks at the
spec's rate and the infeed at its storage width, exposing the paper's
accuracy-vs-precision trade-off at fleet scale.

Scores, kernels and residuals are bit-identical along every axis
(method, fusion, streaming, pipelining); only simulated cost and the op
ledger differ -- the paper's structural contrast, now measurable per
pair *and* per fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ExplainConfig
from repro.core.distillation import ConvolutionDistiller
from repro.core.fleet import FleetExecutor, feed_bytes
from repro.core.interpretation import feature_contributions
from repro.core.masking import METHODS, MaskPlan, score_plan
from repro.hw.device import Device, DeviceStats
from repro.hw.pod import TpuPod, resolve_pod

FUSIONS = ("wave", "pair")


@dataclass(frozen=True)
class PairExplanation:
    """Explanation artifacts for one input-output pair."""

    kernel: np.ndarray
    scores: np.ndarray
    residual: float


@dataclass(frozen=True)
class InterpretationRun:
    """Outcome of interpreting a batch of pairs on one device."""

    device_name: str
    explanations: list[PairExplanation]
    simulated_seconds: float
    stats: DeviceStats
    num_programs: int = 0  # program scopes opened (waves or pairs)

    @property
    def seconds_per_pair(self) -> float:
        return self.simulated_seconds / max(1, len(self.explanations))


class ExplanationPipeline:
    """Distill-then-interpret, timed on a device.

    Parameters
    ----------
    device:
        Any backend implementing the device interface, or a
        :class:`~repro.hw.pod.TpuPod`.
    config, **fields:
        The explanation knobs -- granularity, block shape, precision,
        solve, scoring, stack budget, streaming and pod placement --
        documented once on :class:`~repro.core.config.ExplainConfig`.
        Keyword ``fields`` override ``config`` (``None`` starts from the
        field defaults).  ``chunk_rows``, ``max_pairs_per_wave`` and
        ``placement`` shape wave fusion only.
    method:
        ``"batched"`` (default) scores each pair's whole mask plan as
        one batched device program; ``"loop"`` re-runs one masked
        convolution per feature (the historical execution).  Scores are
        identical; only simulated cost and op ledger differ.
        For ``elements`` granularity, ``"loop"`` honors the literal
        per-element Eq. 5 loop (one convolution and, on TPU, one host
        round trip per element), while ``"batched"`` uses the linearity
        fast path: one convolution total, which strictly dominates an
        element plan whose ``(M*N, M, N)`` stack is quadratic in the
        plane size.
    fusion:
        ``"wave"`` (default) fuses equal-shape pairs into scheduler
        waves executed as one batched program each (see
        :mod:`repro.core.fleet`); ``"pair"`` opens one program scope
        per pair.  Only consulted for ``method="batched"``; the loop
        method always executes per pair.
    num_chips, interconnect:
        Pod scaling (wave fusion only): ``num_chips=K > 1`` replicates
        ``device`` into a :class:`~repro.hw.pod.TpuPod` of K clones,
        each with its own sharded :class:`~repro.hw.pod.HostLink`, whose
        remaining collectives are priced on ``interconnect`` (default
        ring); every wave shards across the chips along the config's
        ``placement``.  A pod requires ``method="batched"`` +
        ``fusion="wave"``; the per-pair paths have no sharded execution
        and raise.
    """

    def __init__(
        self,
        device: Device,
        config: ExplainConfig | None = None,
        *,
        method: str = "batched",
        fusion: str = "wave",
        num_chips: int | None = None,
        interconnect=None,
        **fields,
    ) -> None:
        self.config = ExplainConfig.resolve(config, **fields)
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if fusion not in FUSIONS:
            raise ValueError(f"unknown fusion {fusion!r}; expected one of {FUSIONS}")
        # Pod resolution happens here (once) so self.device is the pod
        # and its ledger is the run's ledger; the fleet executor then
        # recognizes the pod and shards along the config's placement.
        self.device = resolve_pod(
            device, num_chips, interconnect, hbm_bytes=self.config.hbm_bytes
        )
        if isinstance(self.device, TpuPod) and (method, fusion) != ("batched", "wave"):
            raise ValueError(
                "pod execution requires method='batched' and "
                "fusion='wave'; the per-pair paths have no sharded "
                f"execution (got method={method!r}, fusion={fusion!r})"
            )
        self.method = method
        self.fusion = fusion

    def explain_pair(self, x: np.ndarray, y: np.ndarray) -> PairExplanation:
        """Distill and interpret one pair (no program scoping)."""
        config = self.config
        distiller = ConvolutionDistiller(
            device=self.device, eps=config.eps, embedding=config.embedding,
            precision=config.precision,
        )
        distiller.fit(x, y)
        kernel = distiller.kernel_
        y_plane = distiller.lift_outputs(y)[0]
        scores = self._score(np.asarray(x), kernel, y_plane)
        residual = distiller.residual(x, y)
        return PairExplanation(kernel=kernel, scores=scores, residual=residual)

    def _score(self, x: np.ndarray, kernel: np.ndarray, y: np.ndarray) -> np.ndarray:
        config = self.config
        if config.granularity == "elements":
            return feature_contributions(
                x, kernel, y, reduction=config.reduction, device=self.device,
                method="naive" if self.method == "loop" else "fast",
            )
        plan = MaskPlan.for_granularity(
            config.granularity, x.shape, block_shape=config.block_shape
        )
        return score_plan(
            x, kernel, y, plan, reduction=config.reduction, method=self.method,
            device=self.device, fill_value=config.fill_value,
            max_stack_bytes=config.max_stack_bytes, precision=config.precision,
        )

    def run(self, pairs) -> InterpretationRun:
        """Interpret a batch of ``(x, y)`` pairs; returns simulated timing.

        Under the default wave fusion, equal-shape pairs fuse into
        scheduler waves, each executing as one ``device.program`` scope
        whose single batched convolution scores every fused pair's mask
        plan and residual plane at once.  Under pair fusion (and always
        under ``method="loop"``) each pair executes inside its own
        program scope, exactly as the paper measures.
        """
        pairs = list(pairs)
        self.device.reset_stats()
        if not pairs:
            # Empty runs cost nothing: zero programs, zero simulated
            # seconds -- the serving layer's idle drain path.
            return InterpretationRun(
                device_name=self.device.name,
                explanations=[],
                simulated_seconds=0.0,
                stats=self.device.take_stats(),
                num_programs=0,
            )
        if self.method == "batched" and self.fusion == "wave":
            return self._run_wave(pairs)
        explanations: list[PairExplanation] = []
        for x, y in pairs:
            x = np.asarray(x)
            infeed = feed_bytes([x, np.asarray(y)], self.config.precision)
            with self.device.program(infeed_bytes=infeed, outfeed_bytes=x.nbytes):
                explanations.append(self.explain_pair(x, y))
        stats = self.device.take_stats()
        return InterpretationRun(
            device_name=self.device.name,
            explanations=explanations,
            simulated_seconds=stats.seconds,
            stats=stats,
            num_programs=len(pairs),
        )

    def service(self, **service_kwargs):
        """An online :class:`~repro.serve.loop.ExplanationService`
        sharing this pipeline's device and :class:`ExplainConfig`.

        The serving-layer constructor: the pipeline's config becomes the
        service's request defaults, so an offline pipeline and its
        online counterpart produce bit-identical explanations for the
        same inputs.  ``service_kwargs`` override any config field and
        add the serving-only knobs: the static micro-batching pair
        (``max_wait_seconds``, ``max_batch_pairs``), the autopilot that
        replaces it (``controller=BatchController(...)``), dispatch
        fairness (``dispatch_policy``, ``key_weights``), caching
        (``cache_max_bytes``) and speculative warming (``warm_cache``,
        ``warm_min_gap_seconds``, ``warm_max_per_gap``), and admission
        control (``admission``, with global and per-key budgets) -- see
        :class:`repro.serve.loop.ExplanationService`.
        """
        from repro.serve.loop import ExplanationService

        return ExplanationService(self.device, self.config, **service_kwargs)

    def _run_wave(self, pairs) -> InterpretationRun:
        fleet = FleetExecutor(self.device, self.config).run(pairs)
        stats = self.device.take_stats()
        explanations = [
            PairExplanation(
                kernel=result.kernel, scores=result.scores, residual=result.residual
            )
            for result in fleet.results
        ]
        return InterpretationRun(
            device_name=self.device.name,
            explanations=explanations,
            simulated_seconds=stats.seconds,
            stats=stats,
            num_programs=fleet.num_waves,
        )
