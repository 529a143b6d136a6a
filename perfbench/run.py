"""Dual-clock benchmark of the explanation stack; see README.md here.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_np2 --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` prints the per-layer metrics from a run with timing
wrappers installed around the layers' public functions.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the program's sources under
``src/`` the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "host_ms_per_expl": "ms",
    "sim_ms_per_expl": "ms",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "slo_max_rps": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fft.calls": "count",
    "fft.planes": "count",
    "fft.host_s": "s",
    "fft.host_us_per_plane": "us",
    "fft.host_frac": "frac",
    "fft.plan_misses": "count",
    "spectra.hits": "count",
    "spectra.misses": "count",
    "spectra.kernel_transforms": "count",
    "conv.calls": "count",
    "conv.chunks": "count",
    "conv.host_s": "s",
    "masking.chunks": "count",
    "masking.host_s": "s",
    "distill.calls": "count",
    "distill.host_s": "s",
    "fleet.calls": "count",
    "fleet.waves": "count",
    "fleet.pairs_per_wave": "count",
    "fleet.self_host_s": "s",
    "hw.dispatches": "count",
    "hw.sim_dispatch_s": "s",
    "hw.sim_conv_s": "s",
    "hw.sim_infeed_s": "s",
    "hw.sim_outfeed_s": "s",
    "hw.sim_overlap_credit_s": "s",
    "hw.mb_moved": "MB",
    "pod.sim_collective_s": "s",
    "pod.collective_mb": "MB",
    "pod.sim_solve_s": "s",
    "pod.chip_imbalance": "ratio",
    "serve.dispatches": "count",
    "serve.pairs_per_dispatch": "count",
    "serve.cache_hit_frac": "frac",
    "serve.sim_queue_ms_p50": "ms",
    "serve.sim_window_ms_p50": "ms",
    "serve.sim_service_ms_p50": "ms",
    "serve.rejected": "count",
    "serve.controller_decisions": "count",
    "serve.autopilot_p50_ms": "ms",
    "serve.autopilot_p99_ms": "ms",
    "serve.p99_samples": "count",
    "serve.self_host_s": "s",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
}

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3

#: The traced run fails if the layer self-times cover less than this
#: share of the untraced host time of the same work.
MIN_ACCOUNTED = 0.5

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import the program from ``src/``; returns the import seconds."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import repro.core  # noqa: F401
    import repro.fft  # noqa: F401
    import repro.hw  # noqa: F401
    import repro.serve  # noqa: F401

    return time.perf_counter() - start


def set_up(workload_class, seed: int):
    """Build the workload SETUP_REPEATS times from cold caches."""
    from repro.fft import (
        clear_dft_matrix_cache,
        clear_fft_plan_cache,
        clear_kernel_spectrum_cache,
    )

    seconds = []
    for _ in range(SETUP_REPEATS):
        clear_fft_plan_cache()
        clear_dft_matrix_cache()
        clear_kernel_spectrum_cache()
        start = time.perf_counter()
        workload = workload_class(seed)
        workload.setup()
        seconds.append(time.perf_counter() - start)
    return workload, statistics.median(seconds)


def timed_cycles(workload, seconds: float, clock=None):
    """Run cycles for about ``seconds``; with ``clock``, alternate
    untraced and traced cycles.  Returns (untraced, traced, sites).

    A further round starts only while at least half of it still fits,
    so a run overshoots ``seconds`` by at most half a round.
    """
    from layers import InstalledWrappers

    untraced, traced, sites = [], [], {}
    start = time.perf_counter()
    elapsed = 0.0
    while not untraced or elapsed + elapsed / len(untraced) / 2 < seconds:
        untraced.append(workload.cycle())
        if clock is not None:
            with InstalledWrappers(clock) as installed:
                traced.append(workload.cycle())
            sites = installed.sites
        elapsed = time.perf_counter() - start
    return untraced, traced, sites


def run_checks(workload, cycle):
    """The sampled correctness checks; returns (attempted, failures)."""
    import checks

    failures = []
    for pair, result, precision in cycle.samples:
        for message in checks.check_explanation(pair, result, workload.block, precision):
            failures.append(f"{precision or 'exact'} sample: {message}")
    return len(cycle.samples), failures


def layer_metrics(workload, untraced, traced, clock) -> tuple[dict, list]:
    """Per-layer metrics per traced cycle, plus tracing-guard failures."""
    cycles = len(traced)
    per = {layer: value / cycles for layer, value in clock.self_seconds.items()}
    calls = {layer: value / cycles for layer, value in clock.calls.items()}
    counts = {name: value / cycles for name, value in clock.counts.items()}
    traced_host = statistics.median(c.host_seconds for c in traced)
    untraced_host = statistics.median(c.host_seconds for c in untraced)
    accounted = sum(per.values())
    planes = counts.get("fft.planes", 0.0)
    waves = counts.get("fleet.waves", 0.0)
    metrics = {
        "fft.calls": calls.get("fft", 0.0),
        "fft.planes": planes,
        "fft.host_s": per.get("fft", 0.0),
        "fft.host_us_per_plane": per.get("fft", 0.0) / planes * 1e6 if planes else 0.0,
        "fft.host_frac": per.get("fft", 0.0) / accounted if accounted else 0.0,
        "conv.calls": calls.get("conv", 0.0),
        "conv.chunks": counts.get("conv.items", 0.0),
        "conv.host_s": per.get("conv", 0.0),
        "masking.chunks": counts.get("masking.items", 0.0),
        "masking.host_s": per.get("masking", 0.0),
        "distill.calls": calls.get("distill", 0.0),
        "distill.host_s": per.get("distill", 0.0),
        "fleet.calls": calls.get("fleet", 0.0),
        "fleet.waves": waves,
        "fleet.pairs_per_wave": counts.get("fleet.pairs", 0.0) / waves if waves else 0.0,
        "fleet.self_host_s": per.get("fleet", 0.0),
        "serve.self_host_s": per.get("serve", 0.0),
        "trace.overhead_frac": traced_host / untraced_host - 1.0,
    }
    for name in traced[0].caches:
        metrics[name] = statistics.mean(c.caches[name] for c in traced)
    metrics.update(traced[0].layer_sim)

    failures = [
        f"wrapper {target} recorded no calls"
        for target in workload.expected_targets
        if clock.wrapper_calls.get(target, 0) == 0
    ]
    if accounted < MIN_ACCOUNTED * untraced_host:
        failures.append(
            f"layer self-times cover {accounted:.3f} s of {untraced_host:.3f} s "
            "untraced host time"
        )
    return metrics, failures


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<28s} {shown:>14s} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    try:
        import_seconds = import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error!r}", file=sys.stderr)
        return 2
    from layers import LayerClock, TracingError
    from workloads import WORKLOADS

    workload_class = WORKLOADS.get(args.workload)
    if workload_class is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    workload, setup_seconds = set_up(workload_class, args.seed)
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"  sizes: {workload.sizes()}")

    clock = LayerClock() if args.trace else None
    problems = []
    try:
        untraced, traced, sites = timed_cycles(workload, args.seconds, clock)
    except TracingError as error:
        # The wrappers could not be installed: rerun untraced so the
        # correctness checks still run, and fail the traced run.
        problems.append(f"tracing: {error}")
        untraced, traced, sites = timed_cycles(workload, args.seconds)
    cycles = untraced + traced
    first = untraced[0]

    check_attempted, check_failures = run_checks(workload, first)
    problems += check_failures
    for cycle in cycles:
        problems += cycle.errors
    digests = {cycle.digest for cycle in cycles}
    if len(digests) != 1:
        problems.append(f"simulated statistics differ between cycles: {sorted(digests)}")
    if not first.sim:
        problems.append("no simulated metrics: the timed phase failed")

    timed_attempted = sum(c.attempted for c in cycles)
    timed_failed = sum(c.failed for c in cycles)
    attempted = timed_attempted + check_attempted
    failed = timed_failed + len(check_failures)
    print(
        f"  phases: timed {len(untraced)} untraced + {len(traced)} traced "
        f"cycles, attempted {timed_attempted}, succeeded "
        f"{timed_attempted - timed_failed}, failed {timed_failed}; checks "
        f"attempted {check_attempted}, succeeded "
        f"{check_attempted - len(check_failures)}, failed {len(check_failures)}; "
        f"failed_frac {failed / attempted:.6g}"
    )
    print(f"  sim digest: {first.digest} (identical across {len(cycles)} cycles: "
          f"{len(digests) == 1})")
    for line in workload.notes(first):
        print(f"  {line}")

    if args.trace:
        units = PER_LAYER
        metrics = {"failed_frac": failed / attempted}
        if traced:
            layer, guard_failures = layer_metrics(workload, untraced, traced, clock)
            metrics.update(layer)
            problems += guard_failures
        for target, where in sorted(sites.items()):
            print(f"  wrapped {target} at {len(where)} sites: {', '.join(where)}")
        print_table("per-layer (traced)", metrics, units)
    else:
        units = END_TO_END
        metrics = {
            **first.sim,
            "setup_s": import_seconds + setup_seconds,
            "host_ms_per_expl": statistics.median(
                c.host_seconds * 1e3 / max(c.completed, 1) for c in untraced
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print_table("end-to-end (untraced)", metrics, units)
    for problem in problems:
        print(f"  FAIL: {problem.strip()}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
