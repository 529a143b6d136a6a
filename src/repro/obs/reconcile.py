"""Ledger↔span reconciliation: the trace as a *checked* model.

The acceptance invariant of the observability layer: the span tree a
traced pod run emits must reproduce the pod ledger's elapsed
decomposition **exactly** -- max-over-chips body, launch floor,
collective rows, overlap credits -- with ``==`` on floats, never a
tolerance.  The emitter and this checker share one builder,
:func:`~repro.hw.pod.pod_trace_events`, so the check is one of
coverage: every event the logs imply was recorded, and nothing else.

This module imports :mod:`repro.hw.pod` and is therefore **not**
re-exported from ``repro.obs`` (the hardware layer imports the tracer;
pulling pod back in at package import would close the cycle) -- import
it directly: ``from repro.obs.reconcile import assert_reconciles``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.hw.pod import TpuPod, pod_trace_events, wave_timeline
from repro.obs.tracer import Tracer, tracer as _global_tracer

#: The negative ledger rows a pod commit may write, in commit order.
CREDIT_OPS = ("host_link_overlap", "pod_compute_overlap", "collective_overlap")

#: The positive collective rows, paired with their wave-stat fields.
COLLECTIVE_OPS = (
    ("pod_scatter", "scatter_seconds"),
    ("pod_broadcast", "broadcast_seconds"),
    ("pod_gather", "gather_seconds"),
)


@dataclass
class ReconciliationReport:
    """Outcome of one reconciliation pass."""

    num_commits: int = 0
    num_traced_commits: int = 0
    num_waves: int = 0
    num_events: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(message)

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return (
            f"<ReconciliationReport {state}: {self.checks} checks over "
            f"{self.num_traced_commits}/{self.num_commits} traced commits, "
            f"{self.num_waves} waves, {self.num_events} events>"
        )


def _event_key(event) -> tuple:
    """What must match: phase, name, lane, position, duration, args."""
    return (
        event.ph, event.name, event.tid, event.ts, event.dur,
        tuple(sorted(event.args.items())),
    )


def reconcile_pod_trace(
    pod: TpuPod, trace: Tracer | None = None, stats=None
) -> ReconciliationReport:
    """Cross-check a pod's recorded trace against its ledger, exactly.

    For every traced commit in ``pod.commit_log``: re-walks
    :func:`~repro.hw.pod.wave_timeline` over the commit's logged waves
    and asserts the recomputed elapsed equals the committed one, then
    rebuilds the commit's events with
    :func:`~repro.hw.pod.pod_trace_events` and requires the recorded
    pod-category events carrying that commit index to equal them as a
    multiset (one check for missing events, one for unexpected ones).
    Then rebuilds the pod ledger's collective and credit rows from the
    logs in commit order and compares them ``==`` against ``stats``
    (default ``pod.stats``; pass a harvested copy when the ledger has
    been taken).
    """
    trace = trace if trace is not None else _global_tracer
    stats = stats if stats is not None else pod.stats
    report = ReconciliationReport(num_commits=len(pod.commit_log))

    pid = trace._pids.get(id(pod))
    recorded: dict[int, Counter] = {}
    for event in trace.events:
        if event.category != "pod" or (pid is not None and event.pid != pid):
            continue
        commit = event.args.get("commit")
        if commit is not None:
            recorded.setdefault(commit, Counter())[_event_key(event)] += 1

    offset = 0
    for index, commit in enumerate(pod.commit_log):
        waves = pod.collective_log[offset:offset + commit.num_waves]
        offset += commit.num_waves
        if commit.trace_base is None:
            continue
        report.num_traced_commits += 1
        report.num_waves += len(waves)
        windows, elapsed = wave_timeline(waves)
        report.check(
            elapsed == commit.elapsed,
            f"commit {index}: recomputed elapsed {elapsed!r} != "
            f"committed {commit.elapsed!r}",
        )
        expected = Counter(
            _event_key(event)
            for event in pod_trace_events(index, commit, waves, windows)
        )
        report.num_events += sum(expected.values())
        got = recorded.get(index, Counter())
        missing, extra = expected - got, got - expected
        report.check(
            not missing,
            f"commit {index}: {sum(missing.values())} ledger events not "
            f"recorded, e.g. {list(missing)[:2]}",
        )
        report.check(
            not extra,
            f"commit {index}: {sum(extra.values())} recorded events the "
            f"ledger does not hold, e.g. {list(extra)[:2]}",
        )

    # Ledger rows: rebuild every pod row from the logs in commit order
    # (adding a zero or negating a sum is exact, so == still holds).
    rebuilt = [
        ("ledger", op, sum(getattr(ws, attr) for ws in pod.collective_log))
        for op, attr in COLLECTIVE_OPS
    ] + [
        ("credit", op, -sum(
            seconds for commit in pod.commit_log
            for name, seconds in commit.credits if name == op
        ))
        for op in CREDIT_OPS
    ]
    for kind, op, expected in rebuilt:
        recorded_row = stats.op_seconds.get(op, 0.0)
        report.check(
            recorded_row == expected,
            f"{kind} row {op!r}: {recorded_row!r} != rebuilt {expected!r}",
        )
    return report


def assert_reconciles(
    pod: TpuPod, trace: Tracer | None = None, stats=None
) -> ReconciliationReport:
    """:func:`reconcile_pod_trace`, raising ``AssertionError`` on failure."""
    report = reconcile_pod_trace(pod, trace=trace, stats=stats)
    if not report.ok:
        detail = "\n  ".join(report.failures[:20])
        raise AssertionError(
            f"trace does not reconcile with the pod ledger "
            f"({len(report.failures)} failures):\n  {detail}"
        )
    return report
