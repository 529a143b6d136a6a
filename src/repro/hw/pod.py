"""A pod of simulated chips behind the common device interface.

The fleet executor saturates one simulated chip; the paper's multi-core
argument ("parallel computation of multiple inputs", Section III-D, and
the cross-replica reassembly sums) extends one level up: a **pod** of K
chips wired by an :class:`~repro.hw.interconnect.Interconnect` shards a
wave's cross-pair stack across the chips and prices the data movement
between them on the modeled links.

**Sharded host links.**  Every member chip owns a :class:`HostLink` --
its private host attachment, priced by the chip's own
``transfer_seconds`` / launch latency.  Pair shards stream to each chip
concurrently from the host (there is no chip-0 fabric scatter on the
data path any more), and each chip outfeeds its own score rows, so a
wave's host-side cost is the *slowest link*, not the sum.  The link's
program launch is **asynchronously queued**: the host enqueues the
wave's SPMD launch on all links and the round trip completes while the
chips already stream and compute, so only the part of the launch
latency that outlasts the wave's busy time is exposed -- a wave can
never finish faster than one launch round trip, but K chips never pay
K round trips on the critical path.  Per wave::

    elapsed = max(launch_round_trip,
                  max_c(infeed_c + compute_c + outfeed_c) + trailing collectives)
            + leading collectives

:class:`TpuPod` is itself a :class:`~repro.hw.device.Device`, so every
consumer that holds a device -- :class:`~repro.core.pipeline
.ExplanationPipeline`, the online :class:`~repro.serve.loop
.ExplanationService` clock, ``take_stats`` harvesting -- works unchanged
with a pod in the socket.  The pod does not execute sharded work itself;
the fleet executor drives the member chips and then calls
:meth:`TpuPod.commit_run` with the per-wave accounting, and the pod
reconciles its ledger:

* every chip's op rows are merged in (**sum over chips = total work**,
  the audit view);
* each wave's collectives land as positive ``pod_scatter`` /
  ``pod_broadcast`` / ``pod_gather`` rows;
* three negative credit rows bring ``stats.seconds`` down to
  **elapsed** time: ``pod_compute_overlap`` (work hidden because chips
  run concurrently -- ``sum`` minus the wave's critical path),
  ``host_link_overlap`` (launch round trips hidden by the asynchronous
  per-chip host links) and ``collective_overlap`` (stage time hidden
  under the previous wave's compute, the
  :func:`~repro.hw.device.pipelined_elapsed_seconds` double-buffering
  model that :meth:`Device.pipeline` applies to infeed).

So ``pod.stats.seconds`` is pod elapsed time, per-chip ledgers stay
auditable in :attr:`TpuPod.chip_stats`, and
:attr:`TpuPod.collective_log` itemizes every wave's collective seconds
plus its per-chip host-link columns.

There is one timeline: :func:`wave_timeline` positions every wave and
sums the elapsed the ledger commits, and :func:`pod_trace_events`
turns those same windows into the run's span tree, which is all the
tracer records and all :mod:`repro.obs.reconcile` rebuilds.

Single ops executed directly on the pod (outside the fleet path)
delegate their cost and numerics to the root chip -- a pod prices like
its root for unsharded work.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.hw.device import Device, DeviceStats, PipelineStage
from repro.hw.interconnect import Interconnect, InterconnectConfig
from repro.obs.tracer import TraceEvent, tracer


def clone_device(device: Device, hbm_bytes: int | None = None) -> Device:
    """A fresh device of the same configuration (for pod replication).

    Prefers an explicit ``clone()`` method (``TpuBackend`` provides one
    rebuilding a chip from its config); otherwise rebuilds from the
    device's ``config`` dataclass (``CpuDevice``, ``GpuDevice``,
    ``TpuCore``).  The clone starts with a clean ledger and shares no
    mutable state with the original.  ``hbm_bytes`` overrides the
    clone's modeled memory capacity -- the per-chip HBM knob of
    capacity-constrained pod placement; it requires a capacity-aware
    ``clone()`` (``TpuBackend`` has one).
    """
    clone = getattr(device, "clone", None)
    if callable(clone):
        if hbm_bytes is None:
            return clone()
        try:
            accepts = "hbm_bytes" in inspect.signature(clone).parameters
        except (TypeError, ValueError):
            accepts = False
        if not accepts:
            raise TypeError(
                f"{type(device).__name__}.clone() does not take hbm_bytes; "
                "cannot build a capacity-overridden pod from it"
            )
        return clone(hbm_bytes=hbm_bytes)
    if hbm_bytes is not None:
        raise TypeError(
            f"cannot override HBM capacity on {type(device).__name__}: it "
            "has no capacity-aware clone()"
        )
    config = getattr(device, "config", None)
    if config is None:
        raise TypeError(
            f"cannot replicate {type(device).__name__}: it has neither a "
            "clone() method nor a config to rebuild from; construct the "
            "pod's member devices explicitly"
        )
    return type(device)(config)


@dataclass(frozen=True)
class HostLink:
    """One chip's private host attachment in a sharded pod.

    The pod's Amdahl fix: instead of chip 0 serially feeding the whole
    fleet and scattering shards over the fabric, every chip streams its
    own shard through its own link, priced by the chip's existing
    ``transfer_seconds`` model.  Launches are queued asynchronously --
    :attr:`launch_latency_seconds` is a *floor* on wave completion, not
    a serial prefix (see :class:`PodWaveStats`).
    """

    device: Device

    def feed_seconds(self, nbytes: int) -> float:
        """Host-link seconds to stream ``nbytes`` to or from the chip."""
        if nbytes < 0:
            raise ValueError(f"cannot transfer a negative byte count ({nbytes})")
        if nbytes == 0:
            return 0.0
        return self.device.transfer_seconds(nbytes)

    @property
    def launch_latency_seconds(self) -> float:
        """The chip's program-launch round trip over this link."""
        return self.device.launch_latency_seconds


@dataclass(frozen=True)
class PodWaveStats:
    """Collective and host-link accounting of one wave on a pod.

    ``chip_seconds[c]`` is chip ``c``'s full ledger delta for this wave
    (zero for chips the placement left idle); ``infeed_seconds`` /
    ``outfeed_seconds`` are the per-chip :class:`HostLink` columns
    (each chip's own shard feed, concurrent across chips);
    ``dispatch_seconds`` the launch round trip each launching chip
    recorded (``launched_chips`` of them), hidden by the asynchronous
    host links up to the wave floor; the collective fields are
    interconnect-priced seconds (and payload bytes) of the *remaining
    true collectives* -- for the overlapped chunk placement, the
    streamed kernel-spectra broadcast.  ``gated_body_seconds``
    optionally overrides the wave's busy critical path with a
    placement-computed pipeline timeline (the chunk placement's
    solve-overlap model); ``solve_seconds`` is the root's kernel-solve
    span inside it, kept for the audit columns.
    """

    wave_index: int
    placement: str
    num_pairs: int
    num_rows: int
    active_chips: int
    chip_seconds: tuple[float, ...]
    scatter_seconds: float = 0.0
    scatter_bytes: int = 0
    broadcast_seconds: float = 0.0
    broadcast_bytes: int = 0
    gather_seconds: float = 0.0
    gather_bytes: int = 0
    dispatch_seconds: float = 0.0
    launched_chips: int = 0
    infeed_seconds: tuple[float, ...] = ()
    outfeed_seconds: tuple[float, ...] = ()
    solve_seconds: float = 0.0
    gated_body_seconds: float | None = None
    chip_index: int | None = None  # wave placement: the chip this wave ran on

    @property
    def collective_seconds(self) -> float:
        return self.scatter_seconds + self.broadcast_seconds + self.gather_seconds

    @property
    def busy_seconds(self) -> tuple[float, ...]:
        """Per-chip infeed + compute + outfeed: the ledger delta minus
        the launch round trip the asynchronous host link hides."""
        dispatch = self.dispatch_seconds
        return tuple(
            max(0.0, seconds - dispatch) if seconds > 0.0 else 0.0
            for seconds in self.chip_seconds
        )

    @property
    def body_seconds(self) -> float:
        """The wave's busy critical path: the slowest chip's infeed +
        compute + outfeed (or the placement's gated timeline)."""
        if self.gated_body_seconds is not None:
            return self.gated_body_seconds
        return max(self.busy_seconds, default=0.0)

    @property
    def chip_phases(self) -> tuple[tuple[float, float, float], ...]:
        """Per-chip ``(infeed, compute, outfeed)`` split of
        :attr:`busy_seconds`: the host-link columns (zero where
        unlogged), with compute the remainder."""
        pad = (0.0,) * len(self.chip_seconds)
        return tuple(
            (infeed, max(0.0, busy - infeed - outfeed), outfeed)
            for busy, infeed, outfeed in zip(
                self.busy_seconds,
                tuple(self.infeed_seconds) + pad,
                tuple(self.outfeed_seconds) + pad,
            )
        )

    @property
    def launch_exposed_seconds(self) -> float:
        """Launch latency the wave cannot hide: a wave never completes
        faster than one launch round trip."""
        trailing = self.body_seconds + self.gather_seconds
        return max(0.0, self.dispatch_seconds - trailing)

    @property
    def launch_hidden_seconds(self) -> float:
        """Launch round trips the asynchronous host links absorbed."""
        recorded = self.dispatch_seconds * self.launched_chips
        return max(0.0, recorded - self.launch_exposed_seconds)

    @property
    def stage(self) -> PipelineStage:
        """The wave as a double-buffering pipeline stage.

        The prologue -- leading collectives plus the exposed launch
        residual -- is what a pipelined pod hides under the previous
        wave's compute (the next wave's launch is already queued on
        the host links); the gather is the epilogue riding opposite
        the next wave's infeed.  A broadcast counts as a leading
        collective only for plain waves: a placement-gated body
        (``gated_body_seconds``) already carries its broadcast waits
        inside the timeline.
        """
        prologue = self.scatter_seconds + self.launch_exposed_seconds
        if self.gated_body_seconds is None:
            prologue += self.broadcast_seconds
        return PipelineStage(
            prologue=prologue,
            body=self.body_seconds,
            epilogue=self.gather_seconds,
        )


@dataclass(frozen=True)
class WaveWindow:
    """One wave's absolute position inside a committed run's timeline.

    All values are simulated seconds from the run's local zero:
    ``prologue_start`` is where the wave's leading collectives begin,
    ``body_start``/``body_end`` bracket the busy critical path, and
    ``end`` adds the gather epilogue.
    """

    prologue_start: float
    body_start: float
    body_end: float
    end: float


def wave_timeline(wave_stats):
    """Per-wave :class:`WaveWindow` positions plus the run's elapsed.

    Walks the committed waves exactly the way :meth:`TpuPod.commit_run`
    prices them -- shared waves chain double-buffered, chip-pinned
    waves partition into concurrent per-chip chains starting after the
    shared segment -- and returns ``(windows, elapsed)`` with
    ``windows`` aligned to the input order.  Each chain accumulates
    term for term like :func:`~repro.hw.device.pipelined_elapsed_seconds`,
    so ``elapsed`` is **bit-identical** to that model and span positions
    derived from the windows reconcile with the pod ledger by ``==``,
    not by tolerance.
    """
    wave_stats = list(wave_stats)
    shared = [ws for ws in wave_stats if ws.chip_index is None]
    pinned: dict[int, list[PodWaveStats]] = {}
    for ws in wave_stats:
        if ws.chip_index is not None:
            pinned.setdefault(ws.chip_index, []).append(ws)
    windows: dict[int, WaveWindow] = {}

    def chain(waves, base: float) -> float:
        """Position one double-buffered chain from ``base``; its elapsed."""
        stages = [ws.stage for ws in waves]
        if not stages:
            return 0.0
        # Stage i's body begins at the accumulated elapsed: its prologue
        # has streamed under the previous stage's work.
        elapsed = stages[0].prologue
        for index, (ws, stage) in enumerate(zip(waves, stages)):
            last = index == len(stages) - 1
            body_start = base + elapsed
            body_end = body_start + stage.body
            windows[id(ws)] = WaveWindow(
                prologue_start=body_start - stage.prologue,
                body_start=body_start,
                body_end=body_end,
                end=body_end + stage.epilogue,
            )
            work = stage.body + (0.0 if last else stage.epilogue)
            next_prologue = 0.0 if last else stages[index + 1].prologue
            elapsed += max(work, next_prologue)
        return elapsed + stages[-1].epilogue

    shared_elapsed = chain(shared, 0.0)
    elapsed = shared_elapsed
    if pinned:
        elapsed += max(chain(waves, shared_elapsed) for waves in pinned.values())
    return [windows[id(ws)] for ws in wave_stats], elapsed


@dataclass(frozen=True)
class PodCommit:
    """One :meth:`TpuPod.commit_run` entry in the pod's commit log.

    ``serial`` is the waves' stage sum without overlap, so ``serial -
    elapsed`` is the ``collective_overlap`` credit.  ``trace_base`` is
    the absolute session timestamp of the run's local zero when the
    commit was traced (``None`` when tracing was off), from which
    :func:`pod_trace_events` rebuilds the commit's events exactly.
    """

    num_waves: int
    elapsed: float
    serial: float
    credits: tuple  # ((op, seconds) pairs actually credited)
    trace_base: float | None


#: tid scheme of pod-category events: shared waves use lanes 0..2
#: (body / leading collectives / gather); waves pinned to chip ``c``
#: use ``3 * (1 + c)`` upward; per-chip busy bars sit at ``64 + c``.
_POD_CHIP_BAR_TID = 64
_POD_LANE_ROLES = ("waves", "collectives", "gather")


def _pod_lane_name(tid: int) -> str:
    if tid >= _POD_CHIP_BAR_TID:
        return f"chip {tid - _POD_CHIP_BAR_TID}"
    role = _POD_LANE_ROLES[tid % 3]
    return role if tid < 3 else f"chip {tid // 3 - 1} {role}"


def pod_trace_events(commit_index: int, commit: PodCommit, waves, windows) -> list:
    """Every pod-lane event of one traced commit, in emission order.

    A pure function of the ledger's own numbers: ``waves`` are the
    commit's :class:`PodWaveStats` and ``windows`` their
    :func:`wave_timeline` positions, offset by ``commit.trace_base``.
    Returns :class:`~repro.obs.tracer.TraceEvent` records (pid left 0,
    flow ids unassigned): the commit instant; per wave its body span,
    the leading collectives (scatter, exposed launch, broadcast --
    a placement-gated body carries its broadcast inside the timeline,
    so that one is an instant), the launch instant, the gather, and
    each busy chip's infeed / compute / outfeed bars
    (:attr:`PodWaveStats.chip_phases`); then one ``s``/``f`` flow pair
    per overlap credit from the run's start to its end.  Zero
    quantities emit nothing.  :meth:`TpuPod.commit_run` emits exactly
    this list and :func:`repro.obs.reconcile.reconcile_pod_trace`
    rebuilds it to compare against what was recorded.
    """
    base = commit.trace_base
    events = []

    def add(ph, name, ts, tid, args, dur=0.0):
        events.append(
            TraceEvent(ph=ph, name=name, category="pod", ts=ts, dur=dur,
                       tid=tid, args=args)
        )

    add("i", "commit", base, 0, {
        "commit": commit_index,
        "elapsed": commit.elapsed,
        "serial": commit.serial,
        "num_waves": commit.num_waves,
    })
    for ws, win in zip(waves, windows):
        gated = ws.gated_body_seconds is not None
        lane = 0 if ws.chip_index is None else 3 * (1 + ws.chip_index)
        tags = {"commit": commit_index, "wave": ws.wave_index}
        add("X", "wave", base + win.body_start, lane, {
            **tags,
            "placement": ws.placement,
            "pairs": ws.num_pairs,
            "rows": ws.num_rows,
            "active_chips": ws.active_chips,
            "gated": gated,
        }, ws.stage.body)
        cursor = base + win.prologue_start
        if ws.scatter_seconds > 0.0:
            add("X", "scatter", cursor, lane + 1,
                {**tags, "bytes": ws.scatter_bytes}, ws.scatter_seconds)
            cursor += ws.scatter_seconds
        if ws.launch_exposed_seconds > 0.0:
            add("X", "launch_exposed", cursor, lane + 1, dict(tags),
                ws.launch_exposed_seconds)
            cursor += ws.launch_exposed_seconds
        if ws.dispatch_seconds > 0.0 or ws.launched_chips > 0:
            add("i", "launch", base + win.prologue_start, lane + 1, {
                **tags,
                "dispatch_seconds": ws.dispatch_seconds,
                "launched_chips": ws.launched_chips,
                "exposed": ws.launch_exposed_seconds,
                "hidden": ws.launch_hidden_seconds,
            })
        if ws.broadcast_seconds > 0.0:
            if gated:
                add("i", "broadcast", base + win.body_start, lane + 1, {
                    **tags, "seconds": ws.broadcast_seconds,
                    "bytes": ws.broadcast_bytes,
                })
            else:
                add("X", "broadcast", cursor, lane + 1,
                    {**tags, "bytes": ws.broadcast_bytes}, ws.broadcast_seconds)
        if ws.gather_seconds > 0.0:
            add("X", "gather", base + win.body_end, lane + 2,
                {**tags, "bytes": ws.gather_bytes}, ws.gather_seconds)
        for chip, phases in enumerate(ws.chip_phases):
            if ws.chip_seconds[chip] <= 0.0:
                continue
            cursor = base + win.body_start
            for name, dur in zip(("infeed", "compute", "outfeed"), phases):
                if dur > 0.0:
                    add("X", name, cursor, _POD_CHIP_BAR_TID + chip,
                        {**tags, "chip": chip}, dur)
                cursor += dur
    for op, seconds in commit.credits:
        args = {"commit": commit_index, "seconds": seconds}
        add("s", op, base, 1, args)
        add("f", op, base + commit.elapsed, 2, dict(args))
    return events


class TpuPod(Device):
    """K member chips plus a shared interconnect, presented as one device."""

    def __init__(
        self,
        devices,
        interconnect: Interconnect | InterconnectConfig | None = None,
        name: str | None = None,
        hbm_bytes=None,
    ) -> None:
        devices = list(devices)
        if not devices:
            raise ValueError("a pod needs at least one chip device")
        for device in devices:
            if not isinstance(device, Device):
                raise TypeError(
                    f"pod members must be Device instances, got {type(device).__name__}"
                )
            if isinstance(device, TpuPod):
                raise TypeError("pods do not nest")
        if isinstance(interconnect, InterconnectConfig):
            interconnect = Interconnect(interconnect)
        self.devices = devices
        self.interconnect = interconnect if interconnect is not None else Interconnect()
        if hbm_bytes is None:
            overrides = [None] * len(devices)
        elif isinstance(hbm_bytes, (int, float)):
            overrides = [int(hbm_bytes)] * len(devices)
        else:
            overrides = [None if v is None else int(v) for v in hbm_bytes]
            if len(overrides) != len(devices):
                raise ValueError(
                    f"{len(overrides)} hbm_bytes entries for {len(devices)} chips"
                )
        for value in overrides:
            if value is not None and value <= 0:
                raise ValueError(f"hbm_bytes must be positive, got {value}")
        self._hbm_overrides = tuple(overrides)
        super().__init__(name=name or f"pod-{len(devices)}x[{devices[0].name}]")
        self.host_links = [HostLink(device) for device in devices]
        self.chip_stats: list[DeviceStats] = [DeviceStats() for _ in devices]
        self.collective_log: list[PodWaveStats] = []
        self.commit_log: list[PodCommit] = []

    @classmethod
    def like(
        cls,
        device: Device,
        num_chips: int,
        interconnect: Interconnect | InterconnectConfig | None = None,
        hbm_bytes: int | None = None,
    ) -> "TpuPod":
        """A pod of ``num_chips`` fresh clones of ``device``.

        Every member (including chip 0) is a clone, so the template
        device's ledger is never aliased by the pod -- callers keep
        reading their own device while the pod accounts separately.
        ``hbm_bytes`` overrides each clone's modeled HBM capacity (the
        capacity-constrained-placement knob).
        """
        if isinstance(device, TpuPod):
            raise TypeError("cannot build a pod from a pod; pass the chip device")
        num_chips = int(num_chips)
        if num_chips < 1:
            raise ValueError(f"a pod needs at least one chip, got {num_chips}")
        return cls(
            [clone_device(device, hbm_bytes=hbm_bytes) for _ in range(num_chips)],
            interconnect=interconnect,
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_chips(self) -> int:
        return len(self.devices)

    @property
    def root(self) -> Device:
        """Chip 0: solves shared kernels (chunk placement), reassembles."""
        return self.devices[0]

    @property
    def chip_hbm_bytes(self) -> tuple:
        """Per-chip modeled HBM capacity (``None`` = unmodeled)."""
        return tuple(
            override if override is not None else device.hbm_capacity_bytes
            for override, device in zip(self._hbm_overrides, self.devices)
        )

    @property
    def min_chip_hbm_bytes(self) -> int | None:
        """The tightest member capacity, or ``None`` when unmodeled.

        What :meth:`repro.core.fleet.FleetSchedule.plan` consults: a
        placement decision must fit the smallest chip it may land on.
        """
        known = [v for v in self.chip_hbm_bytes if v is not None]
        return min(known) if known else None

    @property
    def hbm_capacity_bytes(self) -> int | None:
        return self.min_chip_hbm_bytes

    @property
    def launch_latency_seconds(self) -> float:
        return self.root.launch_latency_seconds

    # ------------------------------------------------------------------
    # Stats plumbing: the pod ledger is the roll-up
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        super().reset_stats()
        for device in self.devices:
            device.reset_stats()
        self.chip_stats = [DeviceStats() for _ in self.devices]
        self.collective_log.clear()
        self.commit_log.clear()

    def commit_run(self, wave_stats) -> float:
        """Fold one sharded fleet run into the pod ledger; returns elapsed.

        Harvests every chip's ledger delta (merging the rows into both
        the per-chip audit ledgers and the pod roll-up), records the
        waves' collective rows, and reconciles ``stats.seconds`` from
        *total work* down to *elapsed* with the three negative credits
        described in the module docstring.  Waves double-buffer along
        :func:`wave_timeline`; waves carrying a ``chip_index`` (the
        ``"wave"`` placement) run **concurrently across chips**: their
        stages group per chip, each chip's sequence pipelines, and
        elapsed is the slowest chip's sequence plus the shared waves.
        With tracing on, the run's :func:`pod_trace_events` land on the
        pod's trace lanes.
        """
        wave_stats = list(wave_stats)
        traced = tracer.enabled
        entry_trace = self.trace_seconds  # the run's local zero
        work = DeviceStats()
        for index, device in enumerate(self.devices):
            delta = device.take_stats()
            self.chip_stats[index].merge(delta)
            work.merge(delta)
        self.stats.merge(work)
        rows_total = 0.0
        launch_hidden = 0.0
        for ws in wave_stats:
            launch_hidden += ws.launch_hidden_seconds
            if ws.scatter_seconds:
                self.stats.record(
                    "pod_scatter", ws.scatter_seconds, bytes_moved=ws.scatter_bytes
                )
                rows_total += ws.scatter_seconds
            if ws.broadcast_seconds:
                self.stats.record(
                    "pod_broadcast", ws.broadcast_seconds, bytes_moved=ws.broadcast_bytes
                )
                rows_total += ws.broadcast_seconds
            if ws.gather_seconds:
                self.stats.record(
                    "pod_gather", ws.gather_seconds, bytes_moved=ws.gather_bytes
                )
                rows_total += ws.gather_seconds
        serial = sum(ws.stage.total for ws in wave_stats)
        windows, elapsed = wave_timeline(wave_stats)
        credits = []
        if launch_hidden > 0:
            self.stats.credit("host_link_overlap", launch_hidden)
            credits.append(("host_link_overlap", launch_hidden))
        # What remains after the hidden launches and the wave-stage
        # shape is cross-chip concurrency: total work plus collective
        # rows, minus the serial stage walk, minus the launches already
        # credited.
        compute_overlap = work.seconds + rows_total - serial - launch_hidden
        if compute_overlap > 0:
            self.stats.credit("pod_compute_overlap", compute_overlap)
            credits.append(("pod_compute_overlap", compute_overlap))
        savings = serial - elapsed
        if savings > 0:
            self.stats.credit("collective_overlap", savings)
            credits.append(("collective_overlap", savings))
        self.collective_log.extend(wave_stats)
        commit = PodCommit(
            num_waves=len(wave_stats),
            elapsed=elapsed,
            serial=serial,
            credits=tuple(credits),
            trace_base=tracer.origin + entry_trace if traced else None,
        )
        self.commit_log.append(commit)
        if traced and tracer.enabled:
            self._trace_commit(
                pod_trace_events(len(self.commit_log) - 1, commit, wave_stats, windows)
            )
            # Park the lane at the run's far edge: the next commit's
            # spans must not regress into this one even when the ledger
            # (post-credit) sits below the timeline extent.
            run_extent = max([elapsed] + [w.end for w in windows])
            self._trace_base = entry_trace + run_extent - self.stats.seconds
        return elapsed

    def _trace_commit(self, events) -> None:
        """Emit one commit's :func:`pod_trace_events` on the pod's pid."""
        pid = tracer.pid_for(self)
        for tid in sorted({0, 1, 2} | {event.tid for event in events}):
            tracer.set_thread_name(pid, tid, _pod_lane_name(tid))
        for event in events:
            if event.ph == "X":
                tracer.complete(
                    event.name, "pod", event.ts, event.dur, pid, event.tid, event.args
                )
            elif event.ph == "i":
                tracer.instant(event.name, "pod", event.ts, pid, event.tid, event.args)
            elif event.ph == "s":
                source = event
            else:
                tracer.flow(
                    event.name, "pod",
                    src=(source.ts, pid, source.tid),
                    dst=(event.ts, pid, event.tid),
                    args=event.args,
                )

    # ------------------------------------------------------------------
    # Cost and numeric hooks: unsharded work prices like the root chip
    # ------------------------------------------------------------------
    def matmul_seconds(self, m: int, k: int, n: int) -> float:
        return self.root.matmul_seconds(m, k, n)

    def elementwise_seconds(self, elements: int, flops_per_element: float = 1.0) -> float:
        return self.root.elementwise_seconds(elements, flops_per_element)

    def transfer_seconds(self, nbytes: int) -> float:
        return self.root.transfer_seconds(nbytes)

    def fft2_seconds(self, m: int, n: int) -> float:
        return self.root.fft2_seconds(m, n)

    def batch_conv_seconds(self, batch: int, m: int, n: int, precision=None) -> float:
        return self.root.batch_conv_seconds(batch, m, n, precision=precision)

    def kernel_spectrum_batch_seconds(
        self, batch: int, m: int, n: int, precision=None
    ) -> float:
        return self.root.kernel_spectrum_batch_seconds(batch, m, n, precision=precision)

    def _matmul_compute(self, a, b):
        return self.root._matmul_compute(a, b)


def resolve_pod(
    device: Device,
    num_chips: int | None = None,
    interconnect: Interconnect | InterconnectConfig | None = None,
    hbm_bytes: int | None = None,
) -> Device:
    """The device an explanation entry point executes on.

    An explicit :class:`TpuPod` is used as given (``num_chips``, when
    set, must match its size).  Otherwise ``num_chips > 1`` replicates
    ``device`` into a fresh pod of that many clones (see
    :meth:`TpuPod.like`), and ``num_chips`` of 1 or ``None`` keeps the
    plain single device, which retains chip-level infeed pipelining.
    """
    if isinstance(device, TpuPod):
        if num_chips is not None and int(num_chips) != device.num_chips:
            raise ValueError(
                f"num_chips={num_chips} disagrees with the supplied "
                f"{device.num_chips}-chip pod"
            )
        return device
    if num_chips is not None and int(num_chips) > 1:
        return TpuPod.like(
            device, int(num_chips), interconnect=interconnect, hbm_bytes=hbm_bytes
        )
    return device
