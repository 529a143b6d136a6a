"""ExplainConfig: the one validated knob set of pipeline, fleet and service."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.core import (
    ExplainConfig,
    ExplanationPipeline,
    FleetExecutor,
    MultiInputScheduler,
    OutputEmbedding,
    make_tpu_chip,
)
from repro.fft import fft_circular_convolve2d
from repro.hw.cpu import CpuDevice
from repro.hw.quantize import precision_spec
from repro.serve import ExplanationService


def planted_pairs(count, shape=(8, 8), seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        x = rng.standard_normal(shape)
        x[0, 0] += 5.0 * np.prod(shape) ** 0.5
        pairs.append((x, fft_circular_convolve2d(x, rng.standard_normal(shape))))
    return pairs


CONSTRUCTORS = {
    "pipeline": ExplanationPipeline,
    "fleet": FleetExecutor,
    "service": ExplanationService,
}

BAD_KNOBS = {
    "chunk_rows": 0,
    "max_pairs_per_wave": 0,
    "hbm_bytes": 0,
    "eps": -1.0,
}


@pytest.mark.parametrize("knob", sorted(BAD_KNOBS))
@pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
def test_bad_knob_rejected_at_construction(constructor, knob):
    """A bad knob fails when the entry point is built -- not at the first
    dispatch, where it used to abort a whole service replay."""
    with pytest.raises(ValueError, match=knob.split("_")[0]):
        CONSTRUCTORS[constructor](
            CpuDevice(), granularity="columns", **{knob: BAD_KNOBS[knob]}
        )


class TestValidation:
    def test_defaults_need_a_block_shape(self):
        with pytest.raises(ValueError, match="block_shape"):
            ExplainConfig()
        assert ExplainConfig(block_shape=(2, 2)).granularity == "blocks"

    @pytest.mark.parametrize(
        "fields",
        [
            {"granularity": "pixels"},
            {"reduction": "magic"},
            {"placement": "diagonal"},
            {"precision": "fp7"},
            {"granularity": "elements", "precision": "int8"},
            {"max_stack_bytes": 0},
            {"max_stack_bytes": -8},
            {"chunk_rows": -1},
        ],
    )
    def test_rejects(self, fields):
        with pytest.raises(ValueError):
            ExplainConfig(**{"granularity": "columns", **fields})

    def test_none_disables_the_optional_bounds(self):
        config = ExplainConfig(
            granularity="rows", max_stack_bytes=None, chunk_rows=None,
            max_pairs_per_wave=None, hbm_bytes=None,
        )
        assert config.max_stack_bytes is None

    def test_replace_revalidates(self):
        config = ExplainConfig(granularity="columns")
        with pytest.raises(ValueError, match="chunk_rows"):
            replace(config, chunk_rows=0)

    def test_frozen(self):
        config = ExplainConfig(granularity="columns")
        with pytest.raises(FrozenInstanceError):
            config.eps = 1.0


class TestNormalization:
    def test_fields_are_stored_resolved(self):
        config = ExplainConfig(
            block_shape=[2.0, 4], precision="int8", hbm_bytes=4096.0
        )
        assert config.block_shape == (2, 4)
        assert config.precision is precision_spec("int8")
        assert config.embedding == OutputEmbedding("identity")
        assert config.hbm_bytes == 4096 and isinstance(config.hbm_bytes, int)

    def test_resolution_is_idempotent(self):
        config = ExplainConfig(block_shape=(2, 2), precision="bf16")
        assert replace(config) == config
        assert replace(config).precision is config.precision


class TestEntryPoints:
    def test_keyword_fields_override_the_config(self):
        config = ExplainConfig(granularity="columns", chunk_rows=4)
        executor = FleetExecutor(CpuDevice(), config, chunk_rows=8)
        assert executor.config.chunk_rows == 8
        assert executor.config.granularity == "columns"
        assert config.chunk_rows == 4  # the caller's config is untouched

    def test_config_and_keywords_build_equal_configs(self):
        config = ExplainConfig(granularity="blocks", block_shape=(2, 2), eps=1e-8)
        by_config = ExplanationPipeline(CpuDevice(), config)
        by_keywords = ExplanationPipeline(
            CpuDevice(), granularity="blocks", block_shape=(2, 2), eps=1e-8
        )
        assert by_config.config == by_keywords.config
        pairs = planted_pairs(2)
        for a, b in zip(
            by_config.run(pairs).explanations, by_keywords.run(pairs).explanations
        ):
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_one_config_drives_every_entry_point(self):
        config = ExplainConfig(granularity="columns", eps=1e-8)
        pairs = planted_pairs(3)
        offline = ExplanationPipeline(CpuDevice(), config).run(pairs)
        fleet = FleetExecutor(CpuDevice(), config).run(pairs)
        batch = MultiInputScheduler(make_tpu_chip(num_cores=4)).explain_batch(
            pairs, config
        )
        for expected, *others in zip(
            offline.explanations, fleet.results, batch.results
        ):
            for other in others:
                np.testing.assert_array_equal(expected.scores, other.scores)

    def test_pipeline_pair_fusion_honours_the_scoring_fields(self):
        """reduction/fill_value reach the per-pair path exactly as the
        wave path, so fusion stays a cost-only axis for every config."""
        pairs = planted_pairs(2)
        config = ExplainConfig(granularity="columns", reduction="l1", fill_value=0.5)
        wave = ExplanationPipeline(CpuDevice(), config).run(pairs)
        pair = ExplanationPipeline(CpuDevice(), config, fusion="pair").run(pairs)
        default = ExplanationPipeline(CpuDevice(), granularity="columns").run(pairs)
        for a, b, c in zip(wave.explanations, pair.explanations, default.explanations):
            np.testing.assert_array_equal(a.scores, b.scores)
            assert not np.array_equal(a.scores, c.scores)
