"""The acceptance invariant: span trees == pod ledger, exactly.

Every traced pod commit's spans must reproduce the ledger's elapsed
decomposition (max-over-chips body, launch floor, collective rows,
overlap credits) with ``==`` on floats, across every chip count and
placement axis.  And switching tracing off must be a bit-identical
no-op: same scores, same ``DeviceStats`` rows, same serve signature.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FleetExecutor, TpuBackend, make_tpu_chip, make_tpu_pod
from repro.obs.reconcile import assert_reconciles, reconcile_pod_trace
from repro.obs.tracer import tracer
from repro.serve import (
    AdmissionController,
    BatchController,
    ExplanationService,
    bursty_requests,
)

PLANE = (16, 16)
BLOCK = (4, 4)


def fleet_pairs(count=12, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(PLANE), rng.standard_normal(PLANE))
        for _ in range(count)
    ]


def run_fleet(num_chips, placement, traced, seed=0, count=12, **fields):
    # A real pod even at num_chips=1 (FleetExecutor's num_chips knob
    # keeps the single-device path there), so every chip count in the
    # matrix exercises the pod commit ledger.
    fields.setdefault("max_pairs_per_wave", 4)
    pod = make_tpu_pod(num_chips, num_cores=8)
    executor = FleetExecutor(
        pod, granularity="blocks", block_shape=BLOCK,
        placement=placement, **fields,
    )
    if traced:
        tracer.enable()
    run = executor.run(fleet_pairs(count=count, seed=seed))
    tracer.disable()
    return run, pod


def stats_tuple(stats):
    return (
        stats.seconds,
        stats.macs,
        stats.bytes_moved,
        dict(stats.op_counts),
        dict(stats.op_seconds),
    )


class TestPodReconciliation:
    @pytest.mark.parametrize("placement", ["data", "chunk", "wave"])
    @pytest.mark.parametrize("num_chips", [1, 2, 4, 8])
    def test_span_tree_equals_ledger(self, num_chips, placement):
        run, pod = run_fleet(num_chips, placement, traced=True)
        report = assert_reconciles(pod, tracer)
        assert report.num_commits == report.num_traced_commits > 0
        assert report.num_waves == len(pod.collective_log)
        assert report.checks > 0

    def test_credit_flows_match_committed_credits(self):
        run, pod = run_fleet(4, "data", traced=True)
        credited = {
            op for commit in pod.commit_log for op, _ in commit.credits
        }
        flow_starts = {
            e.name for e in tracer.events
            if e.ph == "s" and e.category == "pod"
        }
        assert flow_starts == credited

    def test_untraced_commits_are_skipped_not_failed(self):
        pod = make_tpu_pod(2, num_cores=8)
        executor = FleetExecutor(
            pod, granularity="blocks", block_shape=BLOCK,
            placement="data", max_pairs_per_wave=4,
        )
        executor.run(fleet_pairs(count=4))  # untraced commit(s)
        tracer.enable()
        executor.run(fleet_pairs(count=4, seed=1))
        tracer.disable()
        report = reconcile_pod_trace(pod, tracer)
        assert report.ok
        assert report.num_traced_commits < report.num_commits

    def test_detects_a_tampered_span(self):
        run, pod = run_fleet(2, "data", traced=True)
        victim = next(
            i for i, e in enumerate(tracer.events)
            if e.category == "pod" and e.ph == "X" and e.name == "wave"
        )
        tracer.events[victim] = dataclasses.replace(
            tracer.events[victim], dur=tracer.events[victim].dur + 1e-9
        )
        report = reconcile_pod_trace(pod, tracer)
        assert not report.ok
        with pytest.raises(AssertionError):
            assert_reconciles(pod, tracer)

    def test_detects_a_dropped_span(self):
        run, pod = run_fleet(2, "data", traced=True)
        victim = next(
            i for i, e in enumerate(tracer.events)
            if e.category == "pod" and e.ph == "X" and e.name == "compute"
        )
        del tracer.events[victim]
        report = reconcile_pod_trace(pod, tracer)
        assert not report.ok
        assert any("not recorded" in failure for failure in report.failures)

    def test_detects_an_edited_credit_row(self):
        run, pod = run_fleet(2, "data", traced=True)
        op, _ = pod.commit_log[0].credits[0]
        pod.stats.op_seconds[op] -= 1e-9
        report = reconcile_pod_trace(pod, tracer)
        assert not report.ok
        assert any(f"credit row {op!r}" in failure for failure in report.failures)


@settings(deadline=None, max_examples=12)
@given(
    num_chips=st.sampled_from([1, 2, 4]),
    placement=st.sampled_from(["data", "chunk", "wave"]),
    max_pairs_per_wave=st.integers(min_value=1, max_value=6),
    chunk_rows=st.one_of(st.none(), st.integers(min_value=1, max_value=24)),
)
def test_any_traced_pod_run_reconciles_and_matches_one_chip(
    num_chips, placement, max_pairs_per_wave, chunk_rows
):
    """Drawn pod shapes: the trace reconciles and scores stay bitwise."""
    knobs = {"max_pairs_per_wave": max_pairs_per_wave, "chunk_rows": chunk_rows}
    tracer.clear()
    run, pod = run_fleet(num_chips, placement, traced=True, count=6, **knobs)
    try:
        report = assert_reconciles(pod, tracer)
    finally:
        tracer.clear()
    assert report.num_traced_commits == report.num_commits == 1
    reference = FleetExecutor(
        TpuBackend(make_tpu_chip(num_cores=8)), granularity="blocks",
        block_shape=BLOCK, **knobs,
    ).run(fleet_pairs(count=6))
    for ours, theirs in zip(run.results, reference.results):
        assert np.array_equal(ours.scores, theirs.scores)
        assert np.array_equal(ours.kernel, theirs.kernel)
        assert ours.residual == theirs.residual


class TestTracingOffBitIdentity:
    @pytest.mark.parametrize("placement", ["data", "chunk", "wave"])
    def test_fleet_scores_and_ledger_identical(self, placement):
        on_run, on_pod = run_fleet(2, placement, traced=True)
        on_stats = stats_tuple(on_pod.stats)
        tracer.clear()
        off_run, off_pod = run_fleet(2, placement, traced=False)
        assert on_stats == stats_tuple(off_pod.stats)
        for a, b in zip(on_run.results, off_run.results):
            assert np.array_equal(a.scores, b.scores)
            assert np.array_equal(a.kernel, b.kernel)
            assert a.residual == b.residual

    def test_serve_signature_identical_and_reconciles(self):
        def run(traced):
            service = ExplanationService(
                TpuBackend(make_tpu_chip(num_cores=8)),
                granularity="blocks", block_shape=BLOCK,
                max_wait_seconds=0.05, max_batch_pairs=32,
                admission=AdmissionController(max_queue_depth=64),
                controller=BatchController(target_p95_seconds=0.05),
                num_chips=2, metrics_name=None,
            )
            trace = bursty_requests(
                count=36, burst_size=12, burst_gap=0.2, seed=3,
                shape=PLANE, repeat_fraction=0.3,
            )
            if traced:
                tracer.enable()
            report = service.process(trace)
            tracer.disable()
            return report, service

        on, service = run(True)
        recon = reconcile_pod_trace(service.device, tracer, stats=on.stats)
        assert recon.ok, recon.failures[:5]
        tracer.clear()
        off, _ = run(False)
        assert on.signature() == off.signature()
