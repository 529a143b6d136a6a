"""One validated configuration for the distill-then-interpret computation.

The paper's framework is a single computation -- the Eq. 4 solve, then
the Eq. 5 masked convolutions -- and :class:`ExplainConfig` is its one
configuration contract.  Every entry point that runs it
(:class:`~repro.core.pipeline.ExplanationPipeline`,
:class:`~repro.core.fleet.FleetExecutor`,
:meth:`~repro.core.parallel.MultiInputScheduler.explain_batch` and the
online :class:`~repro.serve.loop.ExplanationService`) takes
``config: ExplainConfig | None = None, **fields``, builds its own with
one :meth:`ExplainConfig.resolve` (``dataclasses.replace`` of ``config``
by ``fields``), then hands the object -- not its keywords -- to the
layers below.  Each knob is therefore described and checked here and
nowhere else, and a bad value fails at construction instead of at the
first dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.masking import DEFAULT_STACK_BUDGET_BYTES, REDUCTIONS
from repro.core.transform import OutputEmbedding
from repro.hw.quantize import PrecisionSpec, resolve_precision

GRANULARITIES = ("blocks", "columns", "rows", "elements")

PLACEMENTS = ("data", "chunk", "wave")

_POSITIVE_OR_NONE = ("max_stack_bytes", "chunk_rows", "max_pairs_per_wave", "hbm_bytes")


@dataclass(frozen=True)
class ExplainConfig:
    """The knobs of one explanation computation, validated once.

    granularity:
        The Eq. 5 mask family: ``"blocks"`` (Figure 5 images),
        ``"columns"`` (Figure 6 trace tables), ``"rows"``, or
        ``"elements"``, which scores through the linearity fast path
        (one convolution total, no mask rows).
    block_shape:
        Tile size; required for ``"blocks"`` (stored as a tuple of ints)
        and ignored by the other granularities.
    precision:
        Numeric mode of the interpretation convolutions: any name
        :func:`repro.hw.quantize.precision_spec` accepts (``"fp64"``,
        ``"fp32"``, ``"bf16"``, ``"int8"``) or a
        :class:`~repro.hw.quantize.PrecisionSpec`, stored resolved.
        ``None`` (default) is the exact legacy execution with legacy
        cost accounting.  Masked planes quantize per plane and kernel
        spectra per complex component while the distillation solve stays
        exact, so scores match ``method="loop"`` at the same precision
        bit for bit; a quantized wave streams its infeed at the spec's
        storage width.  Quantizing precisions reject ``"elements"``,
        whose fast path assumes exact arithmetic.
    eps, embedding:
        The Eq. 4 solve of :class:`~repro.core.distillation
        .ConvolutionDistiller`: a non-negative regularizer, and the
        :class:`~repro.core.transform.OutputEmbedding` that lifts outputs
        onto the input plane (``None`` means ``"identity"``).
    reduction, fill_value:
        Eq. 5 scoring: how a masked prediction's residual plane reduces
        to a score (one of :data:`~repro.core.masking.REDUCTIONS`), and
        the value occluded features take (0.0 is Eq. 5 verbatim).
    max_stack_bytes:
        Byte budget for float stacks (positive, or ``None`` to disable
        the guard).  A dense per-pair plan (``fusion="pair"``) over it
        raises :class:`~repro.core.masking.MaskStackBudgetError` pointing
        at ``method="loop"``.  Streamed waves use it to bound the
        per-chunk working set instead, so there only a plane too large
        for one ``M x N`` float row raises.
    chunk_rows:
        Masked planes generated and convolved per streamed chunk
        (positive; default :data:`~repro.core.masking.DEFAULT_CHUNK_ROWS`,
        clamped to the budget).  Peak streaming memory is
        ``O(chunk_rows * M * N)`` however many masks a wave fuses.
    max_pairs_per_wave:
        Optional positive cap on the pairs fused per wave.  Wave planning
        is chunk-adaptive -- the budget bounds the streamed chunk, which
        does not grow with the pairs fused -- so without a cap a wave
        holds every pair of its plane shape; the cap trades per-wave
        batch width against cross-wave infeed overlap.
    placement:
        Sharding axis when execution runs on a :class:`~repro.hw.pod
        .TpuPod`: ``"data"`` splits a wave's pairs across chips,
        ``"chunk"`` its row space (root solve overlapped), ``"wave"``
        pins whole waves to chips round-robin (see
        :mod:`repro.core.fleet`).  Scores stay bit-identical to
        single-chip execution.
    hbm_bytes:
        Positive override of each chip's modeled HBM capacity (``None``
        keeps the device's own); wave budgeting clamps
        ``max_stack_bytes`` to the capacity either way.
    """

    granularity: str = "blocks"
    block_shape: tuple[int, int] | None = None
    precision: PrecisionSpec | str | None = None
    eps: float = 1e-6
    embedding: OutputEmbedding | None = None
    reduction: str = "l2"
    fill_value: float = 0.0
    max_stack_bytes: int | None = DEFAULT_STACK_BUDGET_BYTES
    chunk_rows: int | None = None
    max_pairs_per_wave: int | None = None
    placement: str = "data"
    hbm_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"unknown granularity {self.granularity!r}; "
                f"expected one of {GRANULARITIES}"
            )
        if self.granularity == "blocks":
            if self.block_shape is None:
                raise ValueError("blocks granularity requires a block_shape")
            self._set("block_shape", tuple(int(v) for v in self.block_shape))
        spec = resolve_precision(self.precision)
        if spec is not None and not spec.is_exact and self.granularity == "elements":
            raise ValueError(
                "elements granularity scores through the linearity fast "
                "path, which per-plane quantization breaks; use blocks/"
                "columns/rows or an exact precision ('fp64'/'fp32')"
            )
        self._set("precision", spec)
        if self.eps < 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        if self.embedding is None:
            self._set("embedding", OutputEmbedding("identity"))
        if self.reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {self.reduction!r}; expected one of {REDUCTIONS}"
            )
        for name in _POSITIVE_OR_NONE:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.hbm_bytes is not None:
            self._set("hbm_bytes", int(self.hbm_bytes))
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; expected one of {PLACEMENTS}"
            )

    @classmethod
    def resolve(cls, config: ExplainConfig | None = None, **fields) -> ExplainConfig:
        """``config`` with ``fields`` overridden, validated once.

        The constructor helper of every entry point: ``config=None``
        starts from the defaults, which are not a valid config on their
        own (``"blocks"`` needs a ``block_shape``), so the fields are
        applied before validation runs.
        """
        return cls(**fields) if config is None else replace(config, **fields)

    def _set(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
