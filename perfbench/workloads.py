"""The three workloads: seeded inputs, timed calls, harvested ledgers.

Each workload builds its inputs and executor in :meth:`setup`, and each
:meth:`cycle` runs the whole timed phase once: the host stopwatch wraps
only the calls into the program (``FleetExecutor.run`` or
``ExplanationService.process``).  After the stopwatch stops, a cycle
harvests the simulated ledgers (``DeviceStats``, ``pod.collective_log``,
``ServiceReport``), checks that every explanation completed with finite
scores, and digests the simulated statistics, so repeated cycles must
agree bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import astuple, dataclass, field

import numpy as np

import checks
from inputs import planted_pairs, poisson_trace

#: Regularizer of every per-pair Eq. 4 solve.
EPS = 1e-8

#: Stream tags mixed into the seed, so each input family is independent.
_PAIRS, _WARM, _SAMPLE = 1, 2, 3


def small_chip():
    """One TPU chip: 8 cores, fp32 MXU of 8x8 cells."""
    from repro.core.backend import TpuBackend, make_tpu_chip

    return TpuBackend(
        make_tpu_chip(num_cores=8, precision="fp32", mxu_rows=8, mxu_cols=8)
    )


@dataclass
class Cycle:
    """One pass of a workload's timed phase."""

    host_seconds: float = 0.0
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    sim: dict = field(default_factory=dict)  # simulated end-to-end metrics
    layer_sim: dict = field(default_factory=dict)  # hw.*, pod.*, serve.*
    caches: dict = field(default_factory=dict)  # spectra.*, fft.plan_misses
    digest: str = ""
    samples: list = field(default_factory=list)  # (pair, result, precision)


def _cache_counters() -> dict:
    from repro.fft import fft_plan_cache_info, kernel_spectrum_cache_info

    spectra = kernel_spectrum_cache_info()
    plans = fft_plan_cache_info()
    return {
        "spectra.hits": spectra["hits"],
        "spectra.misses": spectra["misses"],
        "spectra.kernel_transforms": spectra["kernel_transforms"],
        "fft.plan_misses": sum(
            value for key, value in plans.items()
            if key.endswith("_misses") and not key.startswith("kernel_spectrum")
        ),
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _stats_rows(stats) -> tuple:
    """A DeviceStats ledger as plain, exactly comparable values."""
    return (
        repr(stats.seconds),
        stats.macs,
        stats.bytes_moved,
        tuple(
            (op, stats.op_counts[op], repr(stats.op_seconds.get(op, 0.0)))
            for op in sorted(stats.op_counts)
        ),
    )


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def hw_metrics(stats_list) -> dict:
    """hw.* from DeviceStats op rows (summed over ``stats_list``)."""
    seconds, counts, moved = {}, {}, 0
    for stats in stats_list:
        moved += stats.bytes_moved
        for op, value in stats.op_seconds.items():
            seconds[op] = seconds.get(op, 0.0) + value
        for op, value in stats.op_counts.items():
            counts[op] = counts.get(op, 0) + value
    return {
        "hw.dispatches": counts.get("dispatch", 0),
        "hw.sim_dispatch_s": seconds.get("dispatch", 0.0),
        "hw.sim_conv_s": sum(v for op, v in seconds.items() if op.startswith("conv2d")),
        "hw.sim_infeed_s": seconds.get("infeed", 0.0),
        "hw.sim_outfeed_s": seconds.get("outfeed", 0.0),
        "hw.sim_overlap_credit_s": -sum(v for v in seconds.values() if v < 0),
        "hw.mb_moved": moved / 1e6,
    }


def pod_metrics(log) -> dict:
    """pod.* from the pod's collective log (none off the pod)."""
    if not log:
        return {}
    per_chip = np.sum([wave.chip_seconds for wave in log], axis=0)
    return {
        "pod.sim_collective_s": sum(wave.collective_seconds for wave in log),
        "pod.collective_mb": sum(
            wave.scatter_bytes + wave.broadcast_bytes + wave.gather_bytes
            for wave in log
        ) / 1e6,
        "pod.sim_solve_s": sum(wave.solve_seconds for wave in log),
        "pod.chip_imbalance": float(np.max(per_chip) / np.mean(per_chip)),
    }


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(1, math.ceil(p / 100.0 * len(sorted_values))) - 1]


class FleetWorkload:
    """One ``FleetExecutor.run`` over a seeded fleet of planted pairs.

    The fleet is a batch job: every explanation returns when ``run``
    returns, so its latency is the simulated makespan (p50 == p99), and
    the rate a back-to-back stream of such fleets sustains is
    ``pairs / makespan``.
    """

    name = ""
    why = ""
    shape = (0, 0)
    block = (0, 0)
    pair_range = (0, 0)  # the pair count is drawn from [lo, hi)
    warm_pairs = 2
    executor_kwargs: dict = {}
    expected_targets: tuple = ()
    samples = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.core.fleet import FleetExecutor

        rng = np.random.default_rng([self.seed, _PAIRS])
        count = int(rng.integers(*self.pair_range))
        self.pairs = planted_pairs(rng, count, self.shape)
        self.executor = FleetExecutor(
            small_chip(), granularity="blocks", block_shape=self.block,
            eps=EPS, **self.executor_kwargs,
        )
        warm = planted_pairs(
            np.random.default_rng([self.seed, _WARM]), self.warm_pairs, self.shape
        )
        self.executor.run([(p.x, p.y) for p in warm])
        self.executor.device.reset_stats()

    def sizes(self) -> str:
        masks = (self.shape[0] // self.block[0]) * (self.shape[1] // self.block[1])
        return (
            f"{len(self.pairs)} pairs of {self.shape[0]}x{self.shape[1]} planes, "
            f"{self.block[0]}x{self.block[1]} blocks ({masks + 1} rows per pair)"
        )

    def notes(self, cycle: Cycle) -> list[str]:
        return []

    def cycle(self) -> Cycle:
        from repro.fft import clear_kernel_spectrum_cache

        clear_kernel_spectrum_cache()
        device = self.executor.device
        device.reset_stats()
        operands = [(p.x, p.y) for p in self.pairs]
        cycle = Cycle(attempted=len(self.pairs))
        before = _cache_counters()
        start = time.perf_counter()
        try:
            run = self.executor.run(operands)
        except Exception:
            cycle.host_seconds = time.perf_counter() - start
            cycle.failed = cycle.attempted
            cycle.errors.append(traceback.format_exc())
            return cycle
        cycle.host_seconds = time.perf_counter() - start
        cycle.caches = _delta(_cache_counters(), before)
        stats = device.take_stats()
        log = list(self.executor.pod.collective_log) if self.executor.pod else []
        for result in run.results:
            if checks.finite(result):
                cycle.completed += 1
            else:
                cycle.failed += 1
                cycle.errors.append("non-finite explanation")
        makespan_ms = stats.seconds * 1e3
        cycle.sim = {
            "sim_ms_per_expl": makespan_ms / len(self.pairs),
            "sim_p50_ms": makespan_ms,
            "sim_p99_ms": makespan_ms,
            "slo_max_rps": len(self.pairs) / stats.seconds,
        }
        cycle.layer_sim = {**hw_metrics([stats]), **pod_metrics(log)}
        cycle.digest = _digest((_stats_rows(stats), [astuple(w) for w in log]))
        rng = np.random.default_rng([self.seed, _SAMPLE])
        for index in rng.choice(len(self.pairs), self.samples, replace=False):
            cycle.samples.append((self.pairs[index], run.results[index], None))
        return cycle


class FleetNp2(FleetWorkload):
    name = "fleet_np2"
    why = (
        "48x48 planes: every transform takes the Bluestein path; one chip, "
        "3 pipelined waves, so hw ledgers move and pod/serve do nothing"
    )
    shape = (48, 48)
    block = (4, 4)
    pair_range = (11, 13)
    executor_kwargs = {"max_pairs_per_wave": 4}
    expected_targets = (
        "rfft2_batch", "irfft2_batch", "fft2",
        "fft_circular_convolve2d_chunks",
        "MaskSpec.iter_chunks", "MaskSpec.apply_chunks",
        "ConvolutionDistiller.fit", "FleetExecutor.run",
    )


class PodChunk(FleetWorkload):
    name = "pod_chunk"
    why = (
        "32x32 planes, 1x1 blocks, 4 chips with chunk placement: large "
        "radix-2 batches, and a body 5x the launch floor so pod costs show"
    )
    shape = (32, 32)
    block = (1, 1)
    pair_range = (31, 34)
    executor_kwargs = {"num_chips": 4, "placement": "chunk"}
    expected_targets = FleetNp2.expected_targets


class ServeMixed:
    """An open-loop Poisson ladder through ``ExplanationService``.

    The ladder runs the service's default micro-batching policy (50 ms
    window, 32 pairs).  Each rate serves ``TRACES`` independent traces,
    each on a fresh service, and latencies pool across a rate's traces;
    the nominal rate and the knee above it get the most.  The
    ``BatchController`` autopilot serves ``AUTOPILOT_TRACES`` more
    traces at the nominal rate; its latencies are per-layer figures
    only, because the autopilot's p50 and p99 move by 15-25% between
    independent 1000-request traces, more than a run can average out.
    Requests draw fp32 or bf16 (two batch keys under fair dispatch), and
    ``REPEAT_FRACTION`` of them repeat an earlier pair, so the cache is
    read as well as written.
    """

    name = "serve_mixed"
    why = (
        "16x16 planes through batching, cache, fair dispatch and the "
        "autopilot: ~75k tiny FFT calls per cycle, bound by per-call overhead"
    )
    shape = (16, 16)
    block = (4, 4)
    TRACES = {400.0: 1, 800.0: 1, 1200.0: 6, 1600.0: 2, 2400.0: 1}
    RATES = tuple(TRACES)
    NOMINAL = 1200.0
    SLO_P99_S = 0.225
    P95_TARGET_S = 0.09
    AUTOPILOT_TRACES = 2
    REQUESTS_PER_TRACE = 1000
    REPEAT_FRACTION = 0.3
    PRECISIONS = ("fp32", "bf16")
    WARM_REQUESTS = 64
    samples_per_precision = 2
    expected_targets = FleetNp2.expected_targets + ("ExplanationService.process",)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _service(self, autopilot: bool):
        from repro.serve import BatchController, ExplanationService

        controller = (
            BatchController(target_p95_seconds=self.P95_TARGET_S)
            if autopilot else None
        )
        return ExplanationService(
            small_chip(), granularity="blocks", block_shape=self.block, eps=EPS,
            controller=controller,
        )

    def _trace(self, rng, count, rate):
        """(planted trace, the Request objects the service receives)."""
        from repro.serve import Request

        trace = poisson_trace(
            rng, count, rate, self.shape, self.REPEAT_FRACTION, self.PRECISIONS
        )
        requests = [
            Request(
                request_id=index, arrival_time=item.arrival, x=item.pair.x,
                y=item.pair.y, precision=item.precision,
            )
            for index, item in enumerate(trace)
        ]
        return trace, requests

    def setup(self) -> None:
        plan = [(False, rate) for rate, count in self.TRACES.items() for _ in range(count)]
        plan += [(True, self.NOMINAL)] * self.AUTOPILOT_TRACES
        self.runs = []  # (autopilot, rate, trace, requests)
        for index, (autopilot, rate) in enumerate(plan):
            rng = np.random.default_rng([self.seed, _PAIRS, index])
            self.runs.append(
                (autopilot, rate, *self._trace(rng, self.REQUESTS_PER_TRACE, rate))
            )
        for autopilot in (False, True):
            rng = np.random.default_rng([self.seed, _WARM, int(autopilot)])
            _, warm = self._trace(rng, self.WARM_REQUESTS, self.NOMINAL)
            self._service(autopilot).process(warm)

    def sizes(self) -> str:
        return (
            f"traces per rate {self.TRACES} + {self.AUTOPILOT_TRACES} "
            f"autopilot traces at {self.NOMINAL:.0f}/s, "
            f"{self.REQUESTS_PER_TRACE} requests each, {self.shape[0]}x"
            f"{self.shape[1]} planes, {self.block[0]}x{self.block[1]} blocks"
        )

    def notes(self, cycle: Cycle) -> list[str]:
        samples = cycle.layer_sim.get("serve.p99_samples", 0)
        return [
            f"nominal {self.NOMINAL:.0f} req/s: p99 over {samples} completions "
            f"({samples - math.ceil(0.99 * samples)} beyond it)",
            "generator lateness: 0 s by construction (arrival times are "
            "fixed on the simulated clock before process() runs)",
            "known gap: malformed requests are not in the traffic; one "
            "shape-mismatched request aborts the whole process() replay today",
        ]

    def cycle(self) -> Cycle:
        from repro.fft import clear_kernel_spectrum_cache

        clear_kernel_spectrum_cache()
        cycle = Cycle()
        served = []  # (autopilot, rate, trace, report, controller decisions)
        before = _cache_counters()
        for autopilot, rate, trace, requests in self.runs:
            service = self._service(autopilot)
            cycle.attempted += len(requests)
            start = time.perf_counter()
            try:
                report = service.process(requests)
            except Exception:
                cycle.host_seconds += time.perf_counter() - start
                cycle.failed += len(requests)
                cycle.errors.append(traceback.format_exc())
                continue
            cycle.host_seconds += time.perf_counter() - start
            decisions = len(service.controller.decision_log) if autopilot else 0
            served.append((autopilot, rate, trace, report, decisions))
            self._account(cycle, trace, report)
        cycle.caches = _delta(_cache_counters(), before)
        if len(served) == len(self.runs):
            self._harvest(cycle, served)
        return cycle

    @staticmethod
    def _account(cycle: Cycle, trace, report) -> None:
        """Count completions; a hit must equal its cold result exactly."""
        cold = {}
        records = report.ledger.records
        cycle.failed += len(trace) - len(records)
        for record in records:
            if record.status != "completed":
                cycle.failed += 1
                cycle.errors.append(f"rejected: {record.reject_reason}")
                continue
            item = trace[record.request_id]
            key = (item.pair.source, item.precision)
            result = record.result
            if not checks.finite(result):
                cycle.failed += 1
                cycle.errors.append("non-finite explanation")
                continue
            if record.cache_hit:
                first = cold.get(key)
                if first is None or not (
                    np.array_equal(first.scores, result.scores)
                    and np.array_equal(first.kernel, result.kernel)
                ):
                    cycle.failed += 1
                    cycle.errors.append("cache hit differs from its cold result")
                    continue
            else:
                cold.setdefault(key, result)
            cycle.completed += 1

    @staticmethod
    def _latencies(reports) -> list:
        return sorted(
            latency for report in reports for latency in report.ledger.latencies()
        )

    def _harvest(self, cycle: Cycle, served) -> None:
        ladder = {rate: [] for rate in self.RATES}
        autopilot = []
        for is_autopilot, rate, _, report, _ in served:
            (autopilot if is_autopilot else ladder[rate]).append(report)
        worst = {}
        for rate, reports in ladder.items():
            backlog = max(
                report.elapsed_seconds
                - max(record.arrival_time for record in report.ledger.records)
                for report in reports
            )
            worst[rate] = max(nearest_rank(self._latencies(reports), 99), backlog)
        nominal = ladder[self.NOMINAL]
        latencies = self._latencies(nominal)
        completed = sum(report.completed_count for report in nominal)
        cycle.sim = {
            "sim_ms_per_expl": sum(r.stats.seconds for r in nominal) * 1e3 / completed,
            "sim_p50_ms": nearest_rank(latencies, 50) * 1e3,
            "sim_p99_ms": nearest_rank(latencies, 99) * 1e3,
            "slo_max_rps": self._slo_max_rps(worst),
        }
        reports = [report for _, _, _, report, _ in served]
        completions = sum(report.completed_count for report in reports)
        dispatches = sum(report.num_dispatches for report in reports)
        hits = sum(len(report.ledger.cache_hits) for report in reports)
        cold = [
            record for report in nominal for record in report.ledger.completed
            if not record.cache_hit
        ]
        autopilot_latencies = self._latencies(autopilot)

        def p50_ms(values):
            return nearest_rank(sorted(values), 50) * 1e3

        cycle.layer_sim = {
            **hw_metrics([report.stats for report in reports]),
            "serve.dispatches": dispatches,
            "serve.pairs_per_dispatch": (completions - hits) / dispatches,
            "serve.cache_hit_frac": hits / completions,
            "serve.sim_queue_ms_p50": p50_ms(
                r.enqueue_time - r.arrival_time for r in cold),
            "serve.sim_window_ms_p50": p50_ms(
                r.dispatch_time - r.enqueue_time for r in cold),
            "serve.sim_service_ms_p50": p50_ms(
                r.completion_time - r.dispatch_time for r in cold),
            "serve.rejected": sum(report.rejected_count for report in reports),
            "serve.controller_decisions": sum(d for *_, d in served),
            "serve.autopilot_p50_ms": nearest_rank(autopilot_latencies, 50) * 1e3,
            "serve.autopilot_p99_ms": nearest_rank(autopilot_latencies, 99) * 1e3,
            "serve.p99_samples": len(latencies),
        }
        cycle.digest = _digest(
            [(report.signature(), _stats_rows(report.stats)) for report in reports]
        )
        trace, first = next(
            (trace, report) for is_autopilot, rate, trace, report, _ in served
            if not is_autopilot and rate == self.NOMINAL
        )
        rng = np.random.default_rng([self.seed, _SAMPLE])
        for precision in self.PRECISIONS:
            candidates = [
                record for record in first.ledger.completed
                if not record.cache_hit
                and trace[record.request_id].precision == precision
            ]
            for index in rng.choice(
                len(candidates), self.samples_per_precision, replace=False
            ):
                record = candidates[index]
                cycle.samples.append(
                    (trace[record.request_id].pair, record.result, precision)
                )

    def _slo_max_rps(self, worst: dict) -> float:
        """The highest rung within the limit, interpolated toward the next.

        A rung is within the limit when both its pooled p99 and its
        backlog -- how long the service runs past the last arrival --
        are at most ``SLO_P99_S``; ``worst`` holds the larger of the two
        per rung.  Between the highest such rung and the rung above it
        the rate is interpolated linearly on ``worst``, so the figure
        moves smoothly instead of jumping a whole rung when the knee
        shifts.
        """
        passing = [rate for rate in self.RATES if worst[rate] <= self.SLO_P99_S]
        if not passing:
            lowest = self.RATES[0]
            return lowest * self.SLO_P99_S / worst[lowest]
        best = max(passing)
        index = self.RATES.index(best)
        if index + 1 == len(self.RATES):
            return best
        above = self.RATES[index + 1]
        share = (self.SLO_P99_S - worst[best]) / (worst[above] - worst[best])
        return best + (above - best) * share


WORKLOADS = {w.name: w for w in (FleetNp2, PodChunk, ServeMixed)}
