"""Wearer fleet simulator and paced load generator for the ingestion gateway.

One wearer = one subject's ECG and ABP packet streams through its own
:class:`~repro.wiot.channel.WirelessChannel` into the shared gateway --
the same sensor -> channel -> receiver path
:class:`~repro.wiot.environment.WIoTEnvironment` drives for a single
wearer, fanned out to thousands.  The fleet shares one synthetic cohort
(synthesizing a distinct recording per wearer would benchmark the signal
generator, not the gateway), but every wearer gets its own channel seed,
so loss patterns -- and therefore assembly, eviction and abstain
behaviour -- differ across sessions.

Load is offered open loop, at a known rate.  :func:`build_fleet` fixes
every window's due time and channel outcome before the run: each wearer
sends one window per ``period_s`` (3 s is real time; 0 makes everything
due at once).  One :class:`PacedLoad` sender sleeps until the next due
time, then sends every window that is due.  Verdict latency runs from
the *due* time (``time.perf_counter()``), so a stall that delays sending
is charged to every window due during it (no coordinated omission); a
send more than ``LATE_LIMIT_S`` behind schedule means the stated load
was not offered.  ``run_gateway_load`` is the synchronous entry point
of the CLI, the chaos harness and the orchestrator's gateway study.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import signal
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.adaptive.degradation import DegradationController
from repro.analysis.sanitizer import LoopStallSanitizer
from repro.core.detector import PLATFORMS, SIFTDetector
from repro.core.versions import DetectorVersion
from repro.gateway.gateway import GatewayStats, IngestionGateway
from repro.gateway.session import SessionVerdict
from repro.gateway.supervisor import SupervisedScoringBackend, SupervisorStats
from repro.signals.dataset import Record, SyntheticFantasia
from repro.signals.quality import SignalQualityIndex
from repro.wiot.channel import DeliveredPacket, WirelessChannel
from repro.wiot.sensor import BodySensor

__all__ = [
    "Fleet",
    "LoadReport",
    "PacedLoad",
    "build_fleet",
    "fleet_records",
    "run_gateway_load",
    "train_serving_detectors",
]

#: Wall time between one wearer's windows at real time: each window
#: carries 3 s of signal.
PERIOD_S = 3.0
#: A send later than this behind its due time means the run did not
#: offer the load its schedule states.
LATE_LIMIT_S = 1.0
#: Windows sent between event-loop yields while more are already due,
#: so the batcher gets the loop between bursts.
SEND_BURST = 16


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one fleet run (all durations perf_counter-based)."""

    n_wearers: int
    wall_s: float
    windows_sent: int
    windows_vanished: int
    packets_dropped: int
    stats: GatewayStats
    #: Due time to verdict, over the windows that got one.
    p50_latency_s: float
    p99_latency_s: float
    interrupted: bool
    leaked_sessions: int
    #: Wall time between one wearer's windows (0: all due at once).
    period_s: float = PERIOD_S
    #: How far the latest send ran behind its due time.
    max_lateness_s: float = 0.0
    supervisor: SupervisorStats | None = None
    #: Loop-stall sanitizer outcome (``None``: sanitizer off): callbacks
    #: that held the loop past the threshold, and the worst hold.
    loop_stalls: int | None = None
    max_loop_stall_s: float = 0.0

    @property
    def loop_clean(self) -> bool:
        """No observed stall (vacuously true when the sanitizer was off)."""
        return not self.loop_stalls

    @property
    def on_schedule(self) -> bool:
        return self.max_lateness_s <= LATE_LIMIT_S

    @property
    def windows_per_s(self) -> float:
        """Sustained verdict throughput over the whole run."""
        return self.stats.verdicts / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def conservation_ok(self) -> bool:
        """Does every sent window have exactly one disposition?

        The serving contract: ``verdicts + shed + incomplete + vanished
        == sent``, under any fault schedule.  ``repro gateway-bench``
        exits non-zero when this is false.
        """
        s = self.stats
        return (
            s.verdicts
            + s.windows_shed
            + s.incomplete_windows
            + self.windows_vanished
            == self.windows_sent
        )

    def rows(self) -> list[tuple[str, str]]:
        """``(metric, value)`` pairs: the CLI summary and the study report."""
        s, sup = self.stats, self.supervisor
        offered = (
            f"{self.n_wearers / self.period_s:.0f} windows/s, "
            + ("on schedule" if self.on_schedule else "LOAD NOT OFFERED")
            if self.period_s > 0
            else "all due at once"
        )
        rows = [
            ("wearers", f"{self.n_wearers}" + ("  (interrupted)" if self.interrupted else "")),
            ("offered load", f"{offered}  (latest send {self.max_lateness_s * 1e3:.1f} ms late)"),
            ("wall time", f"{self.wall_s:.2f} s"),
            ("windows sent", f"{self.windows_sent}  ({self.packets_dropped} packets dropped)"),
            ("verdicts", f"{s.verdicts}  ({s.windows_scored} scored, "
             f"{s.windows_abstained} abstained)"),
            ("shed", f"{s.windows_shed}  (queue {s.windows_shed_queue}, "
             f"per-session {s.windows_shed_session})"),
            ("incomplete", f"{s.incomplete_windows}  "
             f"(+{self.windows_vanished} vanished in channel)"),
            ("episodes closed", f"{s.episodes_closed}"),
            ("throughput", f"{self.windows_per_s:.0f} windows/s"),
            ("verdict latency", f"p50 {self.p50_latency_s * 1e3:.2f} ms, "
             f"p99 {self.p99_latency_s * 1e3:.2f} ms (from due time)"),
            ("mean batch size", f"{s.mean_batch_size:.2f}"),
            ("leaked sessions", f"{self.leaked_sessions}"),
            ("conservation", "ok" if self.conservation_ok else "VIOLATED"),
        ]
        if self.loop_stalls is not None:
            worst = f"worst {self.max_loop_stall_s * 1e3:.1f} ms"
            rows.append(("loop stalls", f"{self.loop_stalls}  "
                         f"({worst if self.loop_stalls else 'sanitizer clean'})"))
        if sup is not None:
            rows += [
                ("scorer faults", f"{sup.faults}  (crash {sup.crashes}, stall {sup.stalls}, "
                 f"timeout {sup.timeouts}, poison {sup.poisons})"),
                ("scorer restarts", f"{sup.restarts}  ({sup.retries} retries, "
                 f"mean recovery {sup.mean_recovery_s * 1e3:.1f} ms)"),
                ("degraded windows", f"{sup.windows_degraded}  (breaker trips "
                 f"{sup.breaker_trips}, unscorable {sup.windows_unscorable})"),
            ]
        return rows

    def summary(self) -> str:
        return "\n".join(f"{metric:<19}{value}" for metric, value in self.rows())


def train_serving_detectors(
    versions: Sequence[str] = ("original",),
    n_subjects: int = 6,
    seed: int = 2017,
    train_s: float = 120.0,
    platform: str = "numpy",
) -> tuple[SyntheticFantasia, dict[DetectorVersion, SIFTDetector]]:
    """Fit one detector per requested tier on the cohort's first subject.

    A deliberately small training slice -- the load generator measures
    serving throughput, and the detectors only need to be *fitted*, not
    paper-accurate (the evaluation studies own that).  ``platform``
    selects the scoring path of the fitted detectors (``"numpy"`` or
    ``"native"``); training itself is always NumPy.
    """
    data = SyntheticFantasia(n_subjects=n_subjects, seed=seed)
    victim = data.subjects[0]
    others = [s for s in data.subjects if s is not victim]
    training = data.record(victim, train_s, purpose="train")
    donors = [data.record(s, train_s / 2, purpose="train") for s in others[:3]]
    fitted: dict[DetectorVersion, SIFTDetector] = {}
    for version in versions:
        detector = SIFTDetector(version=version, platform=platform)
        detector.fit(training, donors)
        fitted[detector.version] = detector
    return data, fitted


def fleet_records(data: SyntheticFantasia, stream_s: float) -> list[Record]:
    """A handful of distinct recordings, cycled across the fleet."""
    return [
        data.record(subject, stream_s, purpose="test")
        for subject in data.subjects[: min(4, len(data.subjects))]
    ]


@dataclass(frozen=True)
class Fleet:
    """Every window the fleet will send, in sending order: window ``j``
    is wearer ``wearer[j]``'s window ``sequence[j]``, due ``due_s[j]``
    after the start, delivered as ``deliveries[j]`` (``None``: dropped)."""

    wearer_ids: list[str]
    due_s: np.ndarray
    wearer: np.ndarray
    sequence: np.ndarray
    deliveries: list[tuple[DeliveredPacket | None, DeliveredPacket | None]]
    period_s: float

    def slice(self, start: int, stop: int) -> "Fleet":
        """The windows with ``start <= sequence < stop``, due as before."""
        keep = np.flatnonzero((self.sequence >= start) & (self.sequence < stop))
        return dataclasses.replace(
            self,
            due_s=self.due_s[keep],
            wearer=self.wearer[keep],
            sequence=self.sequence[keep],
            deliveries=[self.deliveries[j] for j in keep],
        )


def build_fleet(
    records: Sequence[Record],
    n_wearers: int,
    loss_probability: float = 0.0,
    seed: int = 7,
    period_s: float = PERIOD_S,
) -> Fleet:
    """Schedule and channel outcome of every window, from the seed.

    Wearer ``i`` streams ``records[i % len(records)]`` in order over its
    own channel, seeded ``seed + i``; its window ``k`` is due at
    ``phase_i + k * period_s``, the phases a seeded permutation spread
    over one period.  Windows due together go out round-robin.
    """
    if n_wearers < 1:
        raise ValueError("n_wearers must be >= 1")
    if not records:
        raise ValueError("need at least one record to stream")
    if period_s < 0:
        raise ValueError("period_s must be >= 0")
    rng = np.random.default_rng([seed, 11])
    phase = (rng.permutation(n_wearers) + rng.random()) * period_s / n_wearers
    wearer_ids = [f"wearer-{i:05d}" for i in range(n_wearers)]
    due, wearer, sequence, deliveries = [], [], [], []
    for i in range(n_wearers):
        record = records[i % len(records)]
        ecg = BodySensor(f"w{i}-ecg", "ecg", record)
        abp = BodySensor(f"w{i}-abp", "abp", record)
        channel = WirelessChannel(loss_probability=loss_probability, seed=seed + i)
        for k, pair in enumerate(zip(ecg.packets(), abp.packets())):
            deliveries.append(tuple(channel.transmit(packet) for packet in pair))
            due.append(phase[i] + k * period_s)
            wearer.append(i)
            sequence.append(k)
    order = np.lexsort((wearer, sequence, due))
    return Fleet(
        wearer_ids=wearer_ids,
        due_s=np.asarray(due, dtype=np.float64)[order],
        wearer=np.asarray(wearer, dtype=np.intp)[order],
        sequence=np.asarray(sequence, dtype=np.intp)[order],
        deliveries=[deliveries[j] for j in order],
        period_s=float(period_s),
    )


class PacedLoad:
    """The open-loop sender plus the per-window outcome record.  Wire
    :meth:`on_verdict` into the gateway; it forwards to ``on_verdict``."""

    def __init__(
        self,
        fleet: Fleet,
        on_verdict: Callable[[SessionVerdict], None] | None = None,
    ) -> None:
        n = len(fleet.due_s)
        self.fleet = fleet
        self.forward = on_verdict
        self.index = {
            (fleet.wearer_ids[w], int(k)): j
            for j, (w, k) in enumerate(zip(fleet.wearer, fleet.sequence))
        }
        self.sent_at = np.full(n, np.nan)
        self.verdict_at = np.full(n, np.nan)
        self.t0 = 0.0

    def on_verdict(self, verdict: SessionVerdict) -> None:
        now = time.perf_counter()
        j = self.index.get((verdict.wearer_id, verdict.sequence))
        if j is not None and math.isnan(self.verdict_at[j]):
            self.verdict_at[j] = now
        if self.forward is not None:
            self.forward(verdict)

    def _send(self, gateway: IngestionGateway, j: int, now: float) -> None:
        ecg, abp = self.fleet.deliveries[j]
        wearer_id = self.fleet.wearer_ids[self.fleet.wearer[j]]
        gateway.submit(wearer_id, ecg)
        gateway.submit(wearer_id, abp)
        self.sent_at[j] = now

    async def send(
        self, gateway: IngestionGateway, stop: asyncio.Event | None = None
    ) -> None:
        """Send every window on schedule into a started gateway, until
        ``stop`` is set; yield between bursts only while more is due.
        Setting ``stop`` ends a wait for the next due time at once."""
        due = self.fleet.due_s
        n = len(due)
        j = 0
        stop = stop if stop is not None else asyncio.Event()
        stopped = asyncio.ensure_future(stop.wait())
        self.t0 = time.perf_counter()
        try:
            while j < n and not stop.is_set():
                wait = self.t0 + due[j] - time.perf_counter()
                if wait > 0:
                    await asyncio.wait((stopped,), timeout=wait)
                    continue
                burst_end = min(n, j + SEND_BURST)
                now = time.perf_counter()
                while j < burst_end and self.t0 + due[j] <= now:
                    self._send(gateway, j, now)
                    j += 1
                    now = time.perf_counter()
                if j < n and self.t0 + due[j] <= now:
                    await asyncio.sleep(0)
        finally:
            stopped.cancel()

    def latencies_s(self) -> np.ndarray:
        """Due time to verdict, per window (NaN: no verdict)."""
        return self.verdict_at - (self.t0 + self.fleet.due_s)

    def lateness_s(self) -> np.ndarray:
        """Send time minus due time, over the windows sent."""
        sent = ~np.isnan(self.sent_at)
        return (self.sent_at - (self.t0 + self.fleet.due_s))[sent]

    async def run(
        self, gateway: IngestionGateway, stop: asyncio.Event | None = None
    ) -> LoadReport:
        """Send the fleet, shut the gateway down (scoring everything
        queued, closing every session), and report."""
        async with gateway:
            await self.send(gateway, stop)
        wall_s = time.perf_counter() - self.t0
        sent = np.flatnonzero(~np.isnan(self.sent_at))
        lost = [sum(d is None for d in self.fleet.deliveries[j]) for j in sent]
        latency = self.latencies_s()
        latency = latency[~np.isnan(latency)]
        p50, p99 = (
            np.percentile(latency, (50.0, 99.0)) if latency.size else (math.nan,) * 2
        )
        late = self.lateness_s()
        supervised = isinstance(gateway.backend, SupervisedScoringBackend)
        return LoadReport(
            n_wearers=len(self.fleet.wearer_ids),
            wall_s=wall_s,
            windows_sent=len(lost),
            windows_vanished=lost.count(2),
            packets_dropped=sum(lost),
            stats=gateway.stats(),
            p50_latency_s=float(p50),
            p99_latency_s=float(p99),
            interrupted=stop is not None and stop.is_set(),
            leaked_sessions=gateway.active_sessions,
            period_s=self.fleet.period_s,
            max_lateness_s=float(late.max()) if late.size else 0.0,
            supervisor=gateway.backend.stats() if supervised else None,
        )


def run_gateway_load(
    n_wearers: int = 64,
    stream_s: float = 30.0,
    period_s: float = PERIOD_S,
    batch_size: int = 256,
    loss_probability: float = 0.02,
    with_degradation: bool = False,
    seed: int = 2017,
    install_sigint: bool = False,
    on_verdict: Callable[[SessionVerdict], None] | None = None,
    supervised: bool = False,
    fault_plan: object | None = None,
    supervisor_knobs: dict | None = None,
    sanitize_loop: bool = False,
    stall_threshold_s: float = LoopStallSanitizer.DEFAULT_THRESHOLD_S,
    platform: str = "numpy",
) -> LoadReport:
    """Train, build, and drive a gateway fleet end to end (synchronous).

    Each wearer streams ``stream_s`` of recording through the SQI gate,
    one window every ``period_s`` of wall time (3 s is real time; 0
    makes every window due at once).  With ``install_sigint=True`` a
    SIGINT stops intake and the report still comes, fully accounted and
    flagged ``interrupted``.

    ``supervised=True`` scores through a crash-isolated
    :class:`~repro.gateway.supervisor.SupervisedScoringBackend` (child
    process + watchdog + circuit breaker) instead of in-process; with no
    injected faults the verdict stream is bit-identical either way.
    ``fault_plan`` (a :class:`~repro.faults.runtime.RuntimeFaultPlan`)
    and ``supervisor_knobs`` (extra backend constructor arguments) are
    the chaos harness's hooks and require ``supervised=True``.

    ``platform="native"`` scores through the generated-C hot path, each
    tier's extension built before the event loop starts (a compile on
    the loop would stall every wearer); a supervised child rebuilds it
    from the artifact cache.  Decision values are bit-identical to NumPy
    either way, and a tier without a toolchain falls back to NumPy.

    ``sanitize_loop=True`` times every asyncio callback; any that holds
    the loop past ``stall_threshold_s`` lands in the report's
    ``loop_stalls`` / ``max_loop_stall_s`` (the dynamic ASYNC001 check).
    """
    if (fault_plan is not None or supervisor_knobs) and not supervised:
        raise ValueError("fault_plan/supervisor_knobs require supervised=True")
    if platform not in PLATFORMS:
        raise ValueError(f"platform must be one of {PLATFORMS}, got {platform!r}")
    versions = ["original"]
    if with_degradation:
        versions += ["simplified", "reduced"]
    data, fitted = train_serving_detectors(
        versions=versions, seed=seed, platform=platform
    )
    for detector in fitted.values():
        # Build (or fetch) the native extension now, off the event loop;
        # a NumPy-platform detector returns at once.
        detector.native_active
    primary = fitted[DetectorVersion.ORIGINAL]
    fallbacks = {v: d for v, d in fitted.items() if v is not primary.version}
    backend = None
    if supervised:
        backend = SupervisedScoringBackend(
            {version.value: d for version, d in fitted.items()},
            fault_plan=fault_plan,
            **(supervisor_knobs or {}),
        )
    fleet = build_fleet(
        fleet_records(data, stream_s),
        n_wearers,
        loss_probability=loss_probability,
        seed=seed,
        period_s=period_s,
    )
    load = PacedLoad(fleet, on_verdict=on_verdict)
    gateway = IngestionGateway(
        primary,
        quality_gate=SignalQualityIndex(),
        fallbacks=fallbacks,
        degradation=DegradationController() if with_degradation else None,
        batch_size=batch_size,
        on_verdict=load.on_verdict,
        backend=backend,
    )

    async def _run() -> LoadReport:
        stop = asyncio.Event()
        if install_sigint:  # closing the loop removes the handler
            asyncio.get_running_loop().add_signal_handler(signal.SIGINT, stop.set)
        return await load.run(gateway, stop)

    if not sanitize_loop:
        return asyncio.run(_run())
    with LoopStallSanitizer(threshold_s=stall_threshold_s) as sanitizer:
        report = asyncio.run(_run())
    return dataclasses.replace(
        report,
        loop_stalls=sanitizer.total_stalls,
        max_loop_stall_s=sanitizer.max_stall_s,
    )
