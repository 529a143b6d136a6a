"""Streaming fleet executor: lazy MaskSpec chunks + pipelined waves.

The PR-3 contracts:

* lazy chunk generation is bit-identical to the dense ``MaskPlan``
  constructors at every chunk size;
* streamed chunked scoring == dense ``method="batched"`` ==
  ``method="loop"`` bit-identically, for real and complex operands,
  with identical device ledgers;
* a plan whose dense stack exceeds ``max_stack_bytes`` streams to
  completion (the budget stopped being a ceiling);
* pipelined wave execution charges the serial schedule's op rows plus
  one negative ``infeed_overlap`` credit, so elapsed <= the serial sum
  ``elapsed - infeed_overlap``, strictly below once waves overlap, with
  one dispatch per wave and scores independent of the wave split.
"""

import numpy as np
import pytest

from repro.core import (
    DEFAULT_CHUNK_ROWS,
    ExplanationPipeline,
    FleetExecutor,
    FleetSchedule,
    MaskPlan,
    MaskSpec,
    MaskStackBudgetError,
    TpuBackend,
    effective_chunk_rows,
    make_tpu_chip,
    score_plan,
)
from repro.fft import fft_circular_convolve2d
from repro.fft.convolution import (
    fft_circular_convolve2d_batch,
    fft_circular_convolve2d_chunks,
)
from repro.hw.cpu import CpuDevice
from repro.hw.device import PipelineStage, pipelined_elapsed_seconds
from repro.hw.gpu import GpuDevice

SPECS = [
    ("elements", lambda shape: MaskSpec.elements(shape)),
    ("blocks", lambda shape: MaskSpec.blocks(shape, (2, 2))),
    ("columns", lambda shape: MaskSpec.columns(shape)),
    ("rows", lambda shape: MaskSpec.rows(shape)),
]


def small_backend(num_cores=4):
    return TpuBackend(
        make_tpu_chip(num_cores=num_cores, precision="fp32", mxu_rows=8, mxu_cols=8)
    )


def fitted_setup(shape=(8, 8), seed=0, complex_input=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    if complex_input:
        x = x + 1j * rng.standard_normal(shape)
    else:
        x[0, 0] += 5.0 * np.prod(shape) ** 0.5
    kernel = rng.standard_normal(shape)
    return x, kernel, fft_circular_convolve2d(x, kernel)


def planted_pairs(count, shape=(8, 8), seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        x = rng.standard_normal(shape)
        x[0, 0] += 5.0 * np.prod(shape) ** 0.5
        kernel = rng.standard_normal(shape)
        pairs.append((x, fft_circular_convolve2d(x, kernel)))
    return pairs


class TestMaskSpecGeneration:
    @pytest.mark.parametrize("name,make_spec", SPECS)
    @pytest.mark.parametrize("chunk_rows", [1, 3, DEFAULT_CHUNK_ROWS, 10_000])
    def test_chunks_bit_identical_to_dense_constructor(
        self, name, make_spec, chunk_rows
    ):
        spec = make_spec((6, 8))
        dense = spec.materialize()
        chunks = list(spec.iter_chunks(chunk_rows))
        np.testing.assert_array_equal(
            np.concatenate([chunk for chunk, _ in chunks]), dense.masks
        )
        # Row ranges tile [0, num_masks) in order, chunk sizes bounded.
        next_row = 0
        for chunk, rows in chunks:
            assert rows.start == next_row and len(rows) == chunk.shape[0]
            assert chunk.shape[0] <= chunk_rows
            next_row = rows.stop
        assert next_row == spec.num_masks

    @pytest.mark.parametrize("name,make_spec", SPECS)
    def test_spec_metadata_matches_dense_plan(self, name, make_spec):
        spec = make_spec((6, 8))
        dense = spec.materialize()
        assert spec.num_masks == dense.num_masks
        assert spec.plane_shape == dense.plane_shape
        assert spec.output_shape == dense.output_shape
        assert spec.labels == dense.labels
        assert spec.nbytes == dense.nbytes
        assert spec.bool_nbytes == dense.bool_nbytes
        assert len(spec) == len(dense)

    def test_apply_chunks_matches_dense_apply(self):
        spec = MaskSpec.blocks((8, 8), (2, 2))
        x = np.arange(64.0).reshape(8, 8)
        dense = spec.materialize().apply(x, fill_value=-2.0)
        streamed = np.concatenate(
            [chunk for chunk, _ in spec.apply_chunks(x, fill_value=-2.0, chunk_rows=5)]
        )
        np.testing.assert_array_equal(streamed, dense)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MaskSpec("pixels", (4, 4))
        with pytest.raises(ValueError):
            MaskSpec("blocks", (4, 4))  # needs a block shape
        with pytest.raises(ValueError):
            MaskSpec.blocks((4, 4), (3, 3))  # does not tile
        with pytest.raises(ValueError):
            MaskSpec("columns", (4, 4), block_shape=(2, 2))
        with pytest.raises(ValueError):
            MaskSpec.columns((0, 4))
        with pytest.raises(ValueError):
            list(MaskSpec.columns((4, 4)).iter_chunks(0))
        with pytest.raises(ValueError):
            list(MaskSpec.rows((4, 4)).apply_chunks(np.ones((5, 5))))


class TestStreamedScoringEquivalence:
    @pytest.mark.parametrize("name,make_spec", SPECS)
    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    def test_streamed_equals_dense_equals_loop(self, name, make_spec, complex_input):
        x, kernel, y = fitted_setup(seed=3, complex_input=complex_input)
        spec = make_spec(x.shape)
        dense = score_plan(x, kernel, y, spec.materialize(), method="batched")
        streamed = score_plan(x, kernel, y, spec, method="batched")
        looped = score_plan(x, kernel, y, spec, method="loop")
        np.testing.assert_array_equal(streamed, dense)
        np.testing.assert_array_equal(streamed, looped)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 64])
    def test_chunk_size_never_changes_bits(self, chunk_rows):
        x, kernel, y = fitted_setup(seed=4)
        spec = MaskSpec.elements(x.shape)
        reference = score_plan(x, kernel, y, spec.materialize(), method="batched")
        np.testing.assert_array_equal(
            score_plan(x, kernel, y, spec, method="batched", chunk_rows=chunk_rows),
            reference,
        )
        # A dense plan with chunk_rows set streams too, identically.
        np.testing.assert_array_equal(
            score_plan(
                x, kernel, y, spec.materialize(), method="batched",
                chunk_rows=chunk_rows,
            ),
            reference,
        )

    @pytest.mark.parametrize(
        "device_factory", [CpuDevice, GpuDevice, small_backend],
        ids=["cpu", "gpu", "tpu"],
    )
    def test_streamed_device_ledger_identical_to_dense(self, device_factory):
        x, kernel, y = fitted_setup(seed=5)
        spec = MaskSpec.columns(x.shape)
        dense_device = device_factory()
        dense = score_plan(
            x, kernel, y, spec.materialize(), method="batched", device=dense_device
        )
        streamed_device = device_factory()
        streamed = score_plan(
            x, kernel, y, spec, method="batched", device=streamed_device
        )
        np.testing.assert_array_equal(streamed, dense)
        assert streamed_device.stats.op_counts == dense_device.stats.op_counts
        assert streamed_device.stats.seconds == dense_device.stats.seconds

    def test_over_budget_plan_streams_to_completion(self):
        """The acceptance scenario: num_masks * M * N exceeds the budget
        yet streaming succeeds, bit-identical to method='loop'."""
        x, kernel, y = fitted_setup(seed=6, shape=(16, 16))
        spec = MaskSpec.elements(x.shape)  # 256 masks: 512 KiB dense stack
        budget = spec.nbytes // 8
        with pytest.raises(MaskStackBudgetError):
            score_plan(
                x, kernel, y, spec.materialize(), method="batched",
                max_stack_bytes=budget,
            )
        streamed = score_plan(
            x, kernel, y, spec, method="batched", max_stack_bytes=budget
        )
        looped = score_plan(x, kernel, y, spec, method="loop")
        np.testing.assert_array_equal(streamed, looped)

    def test_budget_below_one_plane_still_raises(self):
        x, kernel, y = fitted_setup(seed=7)
        plane_bytes = x.size * 8
        with pytest.raises(MaskStackBudgetError, match="loop"):
            score_plan(
                x, kernel, y, MaskSpec.columns(x.shape), method="batched",
                max_stack_bytes=plane_bytes - 1,
            )

    def test_effective_chunk_rows_clamps_to_budget(self):
        assert effective_chunk_rows((4, 4), None, None) == DEFAULT_CHUNK_ROWS
        assert effective_chunk_rows((4, 4), 7, None) == 7
        # Budget holds 3 planes of 128 bytes: chunk clamps to 3 rows.
        assert effective_chunk_rows((4, 4), None, 3 * 128) == 3
        with pytest.raises(MaskStackBudgetError):
            effective_chunk_rows((4, 4), None, 127)
        with pytest.raises(ValueError):
            effective_chunk_rows((4, 4), 0, None)


class TestChunkedConvolution:
    def test_chunk_stream_equals_dense_batch(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((9, 5, 6))
        kernels = rng.standard_normal((3, 5, 6))
        row_kernel = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        dense = fft_circular_convolve2d_batch(stack, kernels, row_kernel=row_kernel)
        chunks = ((stack[s : s + 2], range(s, min(s + 2, 9))) for s in range(0, 9, 2))
        streamed = np.empty_like(dense)
        for convolved, rows in fft_circular_convolve2d_chunks(
            chunks, kernels, row_kernel=row_kernel, num_rows=9
        ):
            streamed[rows.start : rows.stop] = convolved
        np.testing.assert_array_equal(streamed, dense)

    def test_sorted_run_fast_path_matches_unsorted_gather(self):
        """The run-length slice-view fast path (sorted row maps) is
        bit-identical to the fancy-index gather (unsorted maps)."""
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((6, 4, 4))
        kernels = rng.standard_normal((2, 4, 4))
        sorted_map = np.array([0, 0, 0, 1, 1, 1])
        permutation = np.array([3, 0, 4, 1, 5, 2])
        shuffled = fft_circular_convolve2d_batch(
            stack[permutation], kernels, row_kernel=sorted_map[permutation]
        )
        ordered = fft_circular_convolve2d_batch(
            stack, kernels, row_kernel=sorted_map
        )
        np.testing.assert_array_equal(shuffled[np.argsort(permutation)], ordered)

    def test_desynchronized_chunk_stream_raises(self):
        kernel = np.ones((4, 4))
        with pytest.raises(ValueError, match="desynchronized"):
            list(
                fft_circular_convolve2d_chunks(
                    [(np.ones((2, 4, 4)), range(1, 3))], kernel, num_rows=3
                )
            )
        with pytest.raises(ValueError, match="expected 3 rows"):
            list(
                fft_circular_convolve2d_chunks(
                    [(np.ones((2, 4, 4)), range(0, 2))], kernel, num_rows=3
                )
            )

    def test_device_chunk_stream_validation(self):
        device = CpuDevice()
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks([], np.ones((2, 4, 4)), num_rows=2)
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks(
                [], np.ones((4, 4)), num_rows=0
            )
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks(
                [], np.ones((2, 4, 4)), num_rows=2, row_kernel=np.array([0, 5])
            )
        with pytest.raises(ValueError):
            device.conv2d_circular_batch_chunks(
                [], np.ones((4, 4)), num_rows=2, row_kernel=np.array([0, 0])
            )


class TestPipelinedElapsedFormula:
    def test_single_stage_degenerates_to_serial(self):
        stage = PipelineStage(prologue=2.0, body=5.0, epilogue=1.0)
        assert pipelined_elapsed_seconds([stage]) == stage.total
        assert pipelined_elapsed_seconds([]) == 0.0

    def test_compute_bound_hides_all_infeed(self):
        # infeed_0 + compute_0 + compute_1 + outfeed_1: stage 1's
        # prologue (1.0) hides entirely under stage 0's compute (10.0).
        stages = [
            PipelineStage(1.0, 10.0, 0.5),
            PipelineStage(1.0, 10.0, 0.5),
        ]
        assert pipelined_elapsed_seconds(stages) == 1.0 + 10.5 + 10.0 + 0.5

    def test_infeed_bound_exposes_link_time(self):
        # Infeed dominates: elapsed collapses to the transfer chain.
        stages = [
            PipelineStage(10.0, 1.0, 0.0),
            PipelineStage(10.0, 1.0, 0.0),
        ]
        assert pipelined_elapsed_seconds(stages) == 10.0 + 10.0 + 1.0

    def test_never_exceeds_serial(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            stages = [
                PipelineStage(*rng.uniform(0.0, 3.0, size=3)) for _ in range(5)
            ]
            serial = sum(stage.total for stage in stages)
            assert pipelined_elapsed_seconds(stages) <= serial + 1e-12


class TestPipelinedExecution:
    def _run(self, device_factory, count=12, wave_width=4):
        return ExplanationPipeline(
            device_factory(), granularity="columns", eps=1e-8,
            max_pairs_per_wave=wave_width,
        ).run(planted_pairs(count))

    @pytest.mark.parametrize(
        "device_factory", [CpuDevice, GpuDevice, small_backend],
        ids=["cpu", "gpu", "tpu"],
    )
    def test_pipelined_at_most_serial_with_identical_compute(self, device_factory):
        run = self._run(device_factory)
        overlap = run.stats.op_seconds.get("infeed_overlap", 0.0)
        assert overlap <= 0.0
        serial = run.simulated_seconds - overlap
        assert run.simulated_seconds <= serial
        # Every row but the credit is what a serial wave walk records.
        compute = {
            op: seconds for op, seconds in run.stats.op_seconds.items()
            if op != "infeed_overlap"
        }
        assert sum(compute.values()) == pytest.approx(serial)
        assert run.stats.op_counts.get("infeed_overlap", 0) <= 1
        # One wave (nothing to overlap) scores the same bits.
        single = self._run(device_factory, wave_width=None)
        assert "infeed_overlap" not in single.stats.op_seconds
        for a, b in zip(single.explanations, run.explanations):
            np.testing.assert_array_equal(a.scores, b.scores)
            np.testing.assert_array_equal(a.kernel, b.kernel)
            assert a.residual == b.residual

    def test_multi_wave_tpu_fleet_strictly_faster_pipelined(self):
        run = self._run(small_backend)
        # The credited time is exposed on the ledger, once per run.
        assert run.stats.op_counts["infeed_overlap"] == 1
        assert run.stats.op_seconds["infeed_overlap"] < 0
        assert run.stats.op_counts["dispatch"] == run.num_programs == 3

    def test_single_wave_times_identically_either_way(self):
        run = ExplanationPipeline(
            small_backend(), granularity="columns", eps=1e-8,
        ).run(planted_pairs(4))
        assert run.num_programs == 1
        # Nothing to overlap: elapsed is the serial sum, uncredited.
        assert "infeed_overlap" not in run.stats.op_seconds
        assert run.simulated_seconds == pytest.approx(
            sum(run.stats.op_seconds.values())
        )

    def test_tpu_chip_ledger_records_overlap_event(self):
        backend = small_backend()
        executor = FleetExecutor(
            backend, granularity="columns", max_pairs_per_wave=2
        )
        executor.run(planted_pairs(6))
        assert backend.chip.event_count("infeed_overlap") == 1

    def test_pipeline_scopes_do_not_nest(self):
        device = CpuDevice()
        with device.pipeline():
            with pytest.raises(RuntimeError, match="nest"):
                with device.pipeline():
                    pass

    def test_empty_pipeline_scope_is_free(self):
        device = CpuDevice()
        with device.pipeline():
            pass
        assert device.stats.seconds == 0.0
        assert not device.stats.op_counts

    def test_stats_credit_validation(self):
        device = CpuDevice()
        with pytest.raises(ValueError):
            device.stats.credit("infeed_overlap", -1.0)


class TestStreamingFleet:
    def test_over_budget_pairs_fuse_into_one_streamed_wave(self):
        """PR-2 raised MaskStackBudgetError here; streaming runs it.
        Each pair's dense stack alone exceeds the budget, yet the
        chunk-adaptive planner fuses all three into one wave (the budget
        bounds the chunk only) -- bit-identical to per-pair execution."""
        pairs = planted_pairs(3)
        plan_bytes = MaskPlan.columns((8, 8)).nbytes + 8 * 8 * 8  # + residual
        adaptive = FleetExecutor(
            CpuDevice(), granularity="columns", max_stack_bytes=plan_bytes - 1
        ).run(pairs)
        assert adaptive.num_waves == 1
        reference = ExplanationPipeline(
            CpuDevice(), granularity="columns", eps=1e-6, fusion="pair",
            max_stack_bytes=None,
        ).run(pairs)
        for a, b in zip(reference.explanations, adaptive.results):
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.residual == b.residual

    def test_chunk_adaptive_planning_shrinks_dispatch_count_at_100_pairs(self):
        """The chunk-adaptive acceptance contract: at 100 pairs under a
        budget that holds only four pairs' dense stacks, the planner
        fuses the whole fleet into one dispatch (one program scope),
        faster than the same fleet capped at four pairs per wave and
        with bit-identical scores."""
        pairs = planted_pairs(100)
        plan_bytes = (MaskPlan.columns((8, 8)).num_masks + 1) * 8 * 8 * 8
        runs = {}
        for cap in (4, None):
            runs[cap] = ExplanationPipeline(
                small_backend(), granularity="columns", eps=1e-8,
                max_stack_bytes=4 * plan_bytes, max_pairs_per_wave=cap,
            ).run(pairs)
        assert runs[4].stats.op_counts["dispatch"] == 25  # 4-pair waves
        assert runs[None].stats.op_counts["dispatch"] == 1  # one fused wave
        assert runs[None].simulated_seconds < runs[4].simulated_seconds
        for a, b in zip(runs[4].explanations, runs[None].explanations):
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.residual == b.residual

    def test_over_budget_pair_plans_one_streamed_wave(self):
        # 101 rows of 4x4 float64 is 12928 bytes, far over the budget,
        # but only one 128-byte plane has to fit it.
        schedule = FleetSchedule.plan([(4, 4)], [100], max_stack_bytes=1000)
        assert schedule.num_waves == 1
        assert schedule.waves[0].num_rows == 101

    def test_streaming_plane_too_large_still_raises(self):
        with pytest.raises(MaskStackBudgetError, match="single plane"):
            FleetSchedule.plan([(8, 8)], [4], max_stack_bytes=100)

    def test_tiny_chunks_bit_identical_at_fleet_scale(self):
        pairs = planted_pairs(5)
        reference = ExplanationPipeline(
            small_backend(), granularity="blocks", block_shape=(2, 2), eps=1e-8,
            fusion="pair",
        ).run(pairs)
        chunked = ExplanationPipeline(
            small_backend(), granularity="blocks", block_shape=(2, 2), eps=1e-8,
            chunk_rows=1,
        ).run(pairs)
        for a, b in zip(reference.explanations, chunked.explanations):
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.residual == b.residual

    def test_wave_ledger_unchanged_by_chunk_size(self):
        """Streaming is a memory optimization, not a cost change: the
        simulated ledger is invariant to chunk_rows."""
        pairs = planted_pairs(4)
        stats = {}
        for chunk_rows in (1, 3, 64):
            run = ExplanationPipeline(
                small_backend(), granularity="columns", eps=1e-8,
                chunk_rows=chunk_rows,
            ).run(pairs)
            stats[chunk_rows] = run.stats
        assert stats[1].op_counts == stats[64].op_counts == stats[3].op_counts
        assert stats[1].seconds == stats[3].seconds == stats[64].seconds


class TestQuantizedStreaming:
    """PR-4 contracts: the precision axis quantizes per plane, so
    streamed, dense and loop execution stay bit-identical at bf16 and
    int8, with the documented error bound holding for batched runs."""

    MASK_SPECS = [spec for spec in SPECS if spec[0] != "elements"]

    @pytest.mark.parametrize("name,make_spec", MASK_SPECS)
    @pytest.mark.parametrize("precision", ["bf16", "int8"])
    def test_streamed_equals_dense_equals_loop_quantized(
        self, name, make_spec, precision
    ):
        x, kernel, y = fitted_setup(seed=6)
        spec = make_spec(x.shape)
        dense = score_plan(
            x, kernel, y, spec.materialize(), method="batched", precision=precision
        )
        streamed = score_plan(x, kernel, y, spec, method="batched", precision=precision)
        looped = score_plan(x, kernel, y, spec, method="loop", precision=precision)
        np.testing.assert_array_equal(streamed, dense)
        np.testing.assert_array_equal(streamed, looped)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_quantized_chunk_size_never_changes_bits(self, chunk_rows):
        x, kernel, y = fitted_setup(seed=7)
        spec = MaskSpec.columns(x.shape)
        reference = score_plan(
            x, kernel, y, spec.materialize(), method="batched", precision="int8"
        )
        np.testing.assert_array_equal(
            score_plan(
                x, kernel, y, spec, method="batched", precision="int8",
                chunk_rows=chunk_rows,
            ),
            reference,
        )

    @pytest.mark.parametrize(
        "device_factory", [CpuDevice, GpuDevice, small_backend],
        ids=["cpu", "gpu", "tpu"],
    )
    def test_quantized_device_paths_match_no_device_paths(self, device_factory):
        x, kernel, y = fitted_setup(seed=8)
        spec = MaskSpec.blocks(x.shape, (2, 2))
        reference = score_plan(x, kernel, y, spec, method="batched", precision="int8")
        device = device_factory()
        np.testing.assert_array_equal(
            score_plan(
                x, kernel, y, spec, method="batched", device=device,
                precision="int8",
            ),
            reference,
        )
        np.testing.assert_array_equal(
            score_plan(
                x, kernel, y, spec, method="loop", device=device_factory(),
                precision="int8",
            ),
            reference,
        )

    def test_fp64_precision_matches_unquantized_execution(self):
        x, kernel, y = fitted_setup(seed=9)
        spec = MaskSpec.rows(x.shape)
        np.testing.assert_array_equal(
            score_plan(x, kernel, y, spec, method="batched", precision="fp64"),
            score_plan(x, kernel, y, spec, method="batched"),
        )

    def test_quantized_wave_fleet_matches_quantized_loop(self):
        """The acceptance contract: ExplanationPipeline(precision=...)
        scores match method="loop" bit for bit, streamed (wave), dense
        (pair) and chunk-sharded across a pod.  The 12x12 planes take
        the non-power-of-two (DFT-matmul) transform path, the 8x8 ones
        radix-2."""
        cases = [
            ((8, 8), (2, 2), ["int8"]),
            ((12, 12), (4, 4), ["fp32", "bf16", "int8"]),
        ]
        for shape, block_shape, precisions in cases:
            pairs = planted_pairs(5, shape=shape, seed=10)
            for precision in precisions:
                runs = {
                    mode: ExplanationPipeline(
                        small_backend(), granularity="blocks",
                        block_shape=block_shape, eps=1e-8,
                        precision=precision, **kwargs,
                    ).run(pairs)
                    for mode, kwargs in {
                        "wave": dict(fusion="wave"),
                        "pair": dict(fusion="pair"),
                        "loop": dict(method="loop"),
                        "pod": dict(num_chips=2, placement="chunk"),
                    }.items()
                }
                context = f"{shape} {precision}"
                for a, b, c, d in zip(
                    runs["wave"].explanations,
                    runs["pair"].explanations,
                    runs["loop"].explanations,
                    runs["pod"].explanations,
                ):
                    np.testing.assert_array_equal(a.scores, b.scores, context)
                    np.testing.assert_array_equal(a.scores, c.scores, context)
                    np.testing.assert_array_equal(a.scores, d.scores, context)
                    assert a.residual == b.residual == c.residual == d.residual

    def test_monotone_error_bound_holds_for_batched_execution(self):
        """quantization_error_bound's conv extension bounds executed
        batched scores, monotonically in bits."""
        from repro.hw.quantize import quantized_score_error_bound

        x, kernel, y = fitted_setup(seed=11)
        spec = MaskSpec.blocks(x.shape, (2, 2))
        exact = score_plan(x, kernel, y, spec, method="batched")
        quantized = score_plan(x, kernel, y, spec, method="batched", precision="int8")
        score_bound = quantized_score_error_bound(x, kernel, bits=8)
        assert np.max(np.abs(quantized - exact)) <= score_bound
        bounds = [quantized_score_error_bound(x, kernel, bits=b) for b in (4, 8, 16)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_precision_error_ladder_is_monotone(self):
        x, kernel, y = fitted_setup(seed=12)
        spec = MaskSpec.columns(x.shape)
        exact = score_plan(x, kernel, y, spec, method="batched")
        errors = {
            name: np.max(np.abs(
                score_plan(x, kernel, y, spec, method="batched", precision=name)
                - exact
            ))
            for name in ("fp64", "bf16", "int8")
        }
        assert errors["fp64"] == 0.0
        assert errors["int8"] > errors["bf16"] > 0.0

    def test_quantized_dispatch_counts_match_fp64(self):
        """Precision changes numerics and per-op seconds, never the
        launch structure: dispatch and op counts are identical across
        the ladder."""
        pairs = planted_pairs(4, seed=13)
        counts = {}
        for name in ("fp64", "int8"):
            run = ExplanationPipeline(
                small_backend(), granularity="blocks", block_shape=(2, 2),
                eps=1e-8, precision=name,
            ).run(pairs)
            counts[name] = run.stats.op_counts
        assert counts["fp64"] == counts["int8"]

    def test_quantized_wave_cheaper_than_fp64_wave_on_tpu(self):
        """The speed side of the trade-off: int8 waves price below fp64
        waves (MXU rate + 1-byte infeed) with identical structure."""
        pairs = planted_pairs(4, seed=14)
        seconds = {}
        for name in ("int8", "fp64"):
            run = ExplanationPipeline(
                small_backend(), granularity="blocks", block_shape=(2, 2),
                eps=1e-8, precision=name,
            ).run(pairs)
            seconds[name] = run.simulated_seconds
        assert seconds["int8"] < seconds["fp64"]

    def test_quantizing_precision_rejects_elements_granularity(self):
        with pytest.raises(ValueError, match="linearity"):
            ExplanationPipeline(
                small_backend(), granularity="elements", precision="int8"
            )
        with pytest.raises(ValueError, match="linearity"):
            FleetExecutor(small_backend(), granularity="elements", precision="bf16")

    def test_unknown_precision_rejected_with_vocabulary(self):
        with pytest.raises(ValueError, match="int8"):
            ExplanationPipeline(
                small_backend(), granularity="columns", precision="fp16"
            )
