"""Trace export: Chrome trace-event JSON and ASCII timelines.

:func:`to_chrome_trace` serializes a :class:`~repro.obs.tracer.Tracer`
buffer into the Chrome trace-event format (the JSON Perfetto and
``chrome://tracing`` load directly): complete spans as ``ph: "X"`` with
microsecond ``ts``/``dur``, instants as ``ph: "i"``, flow arrows as
paired ``ph: "s"``/``"f"`` events sharing an ``id``, and
``process_name`` / ``thread_name`` / ``process_sort_index`` metadata
(``ph: "M"``) so the UI labels every lane.  One simulated second is
exported as one second of trace time (``ts_us = ts * 1e6``).

:func:`validate_chrome_trace` is the schema gate the CI smoke step and
the trace benchmark run over every emitted artifact: required keys per
phase, numeric microsecond timestamps, non-negative durations, paired
flow ids.

For terminal inspection there are two renderers in the style of
:func:`repro.hw.trace.utilization_ascii`: :func:`format_trace_ascii`
(one bar row per ``(pid, tid)`` lane) and :func:`format_wave_timeline`
(per-chip infeed/compute/outfeed bars for each pod wave, straight from
``pod.collective_log`` -- no tracer required).
"""

from __future__ import annotations

import json

from repro.obs.tracer import Tracer, tracer as _global_tracer

#: Microseconds per simulated second in the exported timestamps.
US_PER_SECOND = 1e6


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace_events(trace: Tracer | None = None) -> list[dict]:
    """The tracer buffer as a list of Chrome trace-event dicts."""
    trace = trace if trace is not None else _global_tracer
    events: list[dict] = []
    for index, (pid, name) in enumerate(sorted(trace.process_names.items())):
        events.append(
            {
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": name},
            }
        )
        events.append(
            {
                "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
                "args": {"sort_index": index},
            }
        )
    for (pid, tid), name in sorted(trace.thread_names.items()):
        events.append(
            {
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": name},
            }
        )
    for event in trace.events:
        record: dict = {
            "ph": event.ph,
            "name": event.name,
            "cat": event.category or "default",
            "ts": event.ts * US_PER_SECOND,
            "pid": event.pid,
            "tid": event.tid,
            "args": dict(event.args),
        }
        if event.ph == "X":
            record["dur"] = event.dur * US_PER_SECOND
        elif event.ph == "i":
            record["s"] = "t"  # thread-scoped instant
        elif event.ph in ("s", "f"):
            record["id"] = event.flow_id
            if event.ph == "f":
                record["bp"] = "e"  # bind to the enclosing slice
        events.append(record)
    return events


def to_chrome_trace(trace: Tracer | None = None) -> dict:
    """The full Perfetto-loadable trace document."""
    return {
        "traceEvents": chrome_trace_events(trace),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(path, trace: Tracer | None = None) -> dict:
    """Serialize the trace to ``path``; returns the written document."""
    document = to_chrome_trace(trace)
    with open(path, "w") as handle:
        json.dump(document, handle)
    return document


def validate_chrome_trace(document) -> list[str]:
    """Schema problems of a Chrome trace document (empty = valid).

    Checks what a loader relies on: a ``traceEvents`` list whose every
    event names its phase, pid and tid; numeric microsecond ``ts`` on
    every non-metadata event; ``dur >= 0`` on complete spans; named
    metadata payloads; and every flow ``s`` paired with an ``f`` of the
    same id (and vice versa).
    """
    problems: list[str] = []
    if not isinstance(document, dict) or "traceEvents" not in document:
        return ["document must be a dict with a 'traceEvents' list"]
    events = document["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    starts: dict = {}
    finishes: dict = {}
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not a dict")
            continue
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        ph = event.get("ph")
        if ph == "M":
            args = event.get("args")
            if not isinstance(args, dict) or (
                "name" not in args and "sort_index" not in args
            ):
                problems.append(f"{where}: metadata event without a payload")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: non-numeric ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete span with bad dur {dur!r}")
        elif ph == "i":
            pass
        elif ph in ("s", "f"):
            flow_id = event.get("id")
            if flow_id is None:
                problems.append(f"{where}: flow event without an id")
            else:
                (starts if ph == "s" else finishes).setdefault(flow_id, 0)
                if ph == "s":
                    starts[flow_id] += 1
                else:
                    finishes[flow_id] += 1
        else:
            problems.append(f"{where}: unknown phase {ph!r}")
    for flow_id, count in starts.items():
        if finishes.get(flow_id, 0) != count:
            problems.append(f"flow {flow_id}: {count} starts, "
                            f"{finishes.get(flow_id, 0)} finishes")
    for flow_id, count in finishes.items():
        if flow_id not in starts:
            problems.append(f"flow {flow_id}: {count} finishes without a start")
    return problems


# ----------------------------------------------------------------------
# ASCII renderers
# ----------------------------------------------------------------------
def _lane_label(trace: Tracer, pid: int, tid: int) -> str:
    process = trace.process_names.get(pid, f"pid {pid}")
    thread = trace.thread_names.get((pid, tid), f"tid {tid}")
    return f"{process}/{thread}"


def format_trace_ascii(trace: Tracer | None = None, width: int = 60) -> str:
    """Render the span buffer as one ASCII bar row per (pid, tid) lane.

    The terminal sibling of the Perfetto view, in the style of
    :func:`repro.hw.trace.utilization_ascii`: a ``#`` marks a column
    any span on the lane covers, lanes are labeled
    ``process/thread``, and the caption states the time range.
    """
    if width <= 0:
        raise ValueError("plot width must be positive")
    trace = trace if trace is not None else _global_tracer
    spans = trace.spans()
    if not spans:
        return "(no spans recorded)"
    t0 = min(span.ts for span in spans)
    t1 = max(span.end for span in spans)
    extent = max(t1 - t0, 1e-30)
    lanes: dict[tuple[int, int], list] = {}
    for span in spans:
        lanes.setdefault((span.pid, span.tid), []).append(span)
    labels = {
        lane: _lane_label(trace, *lane) for lane in lanes
    }
    pad = max(len(label) for label in labels.values())
    lines = []
    for lane in sorted(lanes):
        row = [" "] * width
        for span in lanes[lane]:
            lo = int((span.ts - t0) / extent * width)
            hi = int((span.end - t0) / extent * width)
            lo = min(max(lo, 0), width - 1)
            hi = min(max(hi, lo + 1), width)
            for col in range(lo, hi):
                row[col] = "#"
        lines.append(f"{labels[lane]:>{pad}} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    lines.append(
        " " * pad
        + f"  {t0 * 1e3:.3f} .. {t1 * 1e3:.3f} ms "
        f"({len(spans)} spans, {len(lanes)} lanes)"
    )
    return "\n".join(lines)


def format_wave_timeline(collective_log, width: int = 48) -> str:
    """Per-chip infeed/compute/outfeed bars for each logged pod wave.

    Renders ``pod.collective_log`` (a list of :class:`~repro.hw.pod
    .PodWaveStats`) directly -- no tracer needed: one block per wave
    with a bar per busy chip (``=`` infeed, ``#`` compute, ``-``
    outfeed -- the :attr:`~repro.hw.pod.PodWaveStats.chip_phases`
    split the pod spans use -- scaled to the wave's slowest chip) and
    a collectives footer when the wave moved fabric or launch time.
    """
    if width <= 0:
        raise ValueError("plot width must be positive")
    waves = list(collective_log)
    if not waves:
        return "(no waves logged)"
    lines = []
    for ws in waves:
        busy = ws.busy_seconds
        span = max(max(busy, default=0.0), 1e-30)
        pinned = "" if ws.chip_index is None else f"  chip {ws.chip_index}"
        lines.append(
            f"wave {ws.wave_index:3d}  {ws.placement:<5s} "
            f"{ws.num_pairs:4d} pairs {ws.num_rows:6d} rows   "
            f"body {ws.body_seconds * 1e3:8.3f} ms{pinned}"
        )
        for chip, (infeed, compute, outfeed) in enumerate(ws.chip_phases):
            chip_busy = busy[chip]
            if chip_busy <= 0.0:
                continue
            in_cols = int(round(infeed / span * width))
            out_cols = int(round(outfeed / span * width))
            comp_cols = max(0, int(round(chip_busy / span * width)) - in_cols - out_cols)
            bar = "=" * in_cols + "#" * comp_cols + "-" * out_cols
            lines.append(
                f"  chip {chip:2d} |{bar:<{width}s}| "
                f"in {infeed * 1e3:7.3f} comp {compute * 1e3:7.3f} "
                f"out {outfeed * 1e3:7.3f} ms"
            )
        collectives = []
        if ws.scatter_seconds:
            collectives.append(f"scatter {ws.scatter_seconds * 1e3:.3f} ms")
        if ws.broadcast_seconds:
            collectives.append(f"broadcast {ws.broadcast_seconds * 1e3:.3f} ms")
        if ws.gather_seconds:
            collectives.append(f"gather {ws.gather_seconds * 1e3:.3f} ms")
        if ws.dispatch_seconds:
            collectives.append(
                f"launch {ws.dispatch_seconds * 1e6:.1f} us x{ws.launched_chips} "
                f"(exposed {ws.launch_exposed_seconds * 1e6:.1f} us)"
            )
        if collectives:
            lines.append("  " + "  ".join(collectives))
    lines.append(f"({len(waves)} waves; bars scale per wave: "
                 "'=' infeed, '#' compute, '-' outfeed)")
    return "\n".join(lines)
