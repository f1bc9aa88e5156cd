"""Wearer fleet simulator and load generator for the ingestion gateway.

One wearer = one coroutine pushing a subject's ECG and ABP packet
streams through its own :class:`~repro.wiot.channel.WirelessChannel`
into the shared gateway -- the same sensor -> channel -> receiver path
:class:`~repro.wiot.environment.WIoTEnvironment` drives for a single
wearer, fanned out to thousands.  The fleet shares one synthetic cohort
(synthesizing a distinct recording per wearer would benchmark the signal
generator, not the gateway), but every wearer gets its own channel seed,
so loss patterns -- and therefore assembly, eviction and abstain
behaviour -- differ across sessions.

All timing uses ``time.perf_counter()``.  ``run_gateway_load`` is the
synchronous entry point used by the CLI, the benchmark suite and the
orchestrator's gateway study; pass ``stop_event`` (or let the CLI
install its SIGINT handler) for a clean early shutdown that still
flushes every session and reports full accounting.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.adaptive.degradation import DegradationController
from repro.analysis.sanitizer import LoopStallSanitizer
from repro.core.detector import PLATFORMS, SIFTDetector
from repro.core.versions import DetectorVersion
from repro.gateway.gateway import GatewayStats, IngestionGateway
from repro.gateway.session import SessionVerdict
from repro.gateway.supervisor import (
    NativeBackend,
    SupervisedScoringBackend,
    SupervisorStats,
)
from repro.signals.dataset import Record, SyntheticFantasia
from repro.signals.quality import SignalQualityIndex
from repro.wiot.channel import WirelessChannel
from repro.wiot.sensor import BodySensor, SensorPacket

__all__ = ["LoadReport", "run_fleet", "run_gateway_load", "train_serving_detectors"]

#: How many windows (= ECG+ABP packet pairs) a wearer pushes between
#: event-loop yields.  Yielding every window keeps sessions finely
#: interleaved (so micro-batches actually mix wearers) without paying a
#: loop round-trip per packet.
_YIELD_EVERY = 1


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one fleet run (all durations perf_counter-based)."""

    n_wearers: int
    wall_s: float
    windows_sent: int
    windows_vanished: int
    packets_dropped: int
    stats: GatewayStats
    p50_latency_s: float
    p99_latency_s: float
    interrupted: bool
    leaked_sessions: int
    supervisor: SupervisorStats | None = None
    #: Event-loop stall sanitizer outcome (``sanitize_loop=True`` runs
    #: only): ``None`` when the sanitizer was off, else the number of
    #: callbacks that held the loop past the threshold and the worst
    #: single hold.  A non-zero count is an ASYNC001-class defect the
    #: static rule missed; ``repro gateway-bench --sanitize-loop`` exits
    #: non-zero on it.
    loop_stalls: int | None = None
    max_loop_stall_s: float = 0.0

    @property
    def loop_clean(self) -> bool:
        """No observed stall (vacuously true when the sanitizer was off)."""
        return not self.loop_stalls

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

    def summary(self) -> str:
        s = self.stats
        lines = [
            f"wearers            {self.n_wearers}"
            + ("  (interrupted)" if self.interrupted else ""),
            f"wall time          {self.wall_s:.2f} s",
            f"windows sent       {self.windows_sent}"
            f"  (channel dropped {self.packets_dropped} packets)",
            f"verdicts           {s.verdicts}"
            f"  ({s.windows_scored} scored, {s.windows_abstained} abstained)",
            f"shed               {s.windows_shed}"
            f"  (queue {s.windows_shed_queue}, per-session {s.windows_shed_session})",
            f"incomplete         {s.incomplete_windows}"
            f"  (+{self.windows_vanished} never reached the gateway)",
            f"episodes closed    {s.episodes_closed}",
            f"throughput         {self.windows_per_s:.0f} windows/s",
            f"verdict latency    p50 {self.p50_latency_s * 1e3:.2f} ms, "
            f"p99 {self.p99_latency_s * 1e3:.2f} ms",
            f"mean batch size    {s.mean_batch_size:.1f}",
            f"leaked sessions    {self.leaked_sessions}",
            f"conservation       {'ok' if self.conservation_ok else 'VIOLATED'}",
        ]
        if self.loop_stalls is not None:
            lines.append(
                f"loop stalls        {self.loop_stalls}"
                + (
                    f"  (worst {self.max_loop_stall_s * 1e3:.1f} ms)"
                    if self.loop_stalls
                    else "  (sanitizer clean)"
                )
            )
        if self.supervisor is not None:
            sup = self.supervisor
            lines += [
                f"scorer faults      {sup.faults}"
                f"  (crash {sup.crashes}, stall {sup.stalls}, "
                f"timeout {sup.timeouts}, poison {sup.poisons})",
                f"scorer restarts    {sup.restarts}"
                f"  ({sup.retries} retries, "
                f"mean recovery {sup.mean_recovery_s * 1e3:.1f} ms)",
                f"degraded windows   {sup.windows_degraded}"
                f"  (breaker trips {sup.breaker_trips}, "
                f"unscorable {sup.windows_unscorable})",
            ]
        return "\n".join(lines)


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


def _wearer_windows(
    record: Record, wearer_index: int
) -> Iterator[tuple[SensorPacket, SensorPacket]]:
    """The (ECG, ABP) packet pairs of one wearer, one pair per window."""
    ecg = BodySensor(f"w{wearer_index}-ecg", "ecg", record)
    abp = BodySensor(f"w{wearer_index}-abp", "abp", record)
    return zip(ecg.packets(), abp.packets())


async def _wearer(
    gateway: IngestionGateway,
    wearer_id: str,
    record: Record,
    wearer_index: int,
    channel: WirelessChannel,
    stop: asyncio.Event,
) -> tuple[int, int]:
    """Stream one wearer's recording; returns (windows sent, windows
    vanished).  A window whose *both* halves the channel drops never
    reaches the gateway, so only the sender can account for it -- it is
    counted here, not in the gateway stats."""
    sent = 0
    vanished = 0
    for ecg_packet, abp_packet in _wearer_windows(record, wearer_index):
        if stop.is_set():
            break
        delivered = 0
        for packet in (ecg_packet, abp_packet):
            transmitted = channel.transmit(packet)
            if transmitted is not None:
                delivered += 1
            gateway.submit(wearer_id, transmitted)
        sent += 1
        if delivered == 0:
            vanished += 1
        if sent % _YIELD_EVERY == 0:
            await asyncio.sleep(0)
    return sent, vanished


async def run_fleet(
    gateway: IngestionGateway,
    records: Sequence[Record],
    n_wearers: int,
    loss_probability: float = 0.0,
    seed: int = 7,
    stop: asyncio.Event | None = None,
) -> LoadReport:
    """Drive ``n_wearers`` concurrent sessions through a started gateway.

    Wearer ``i`` streams ``records[i % len(records)]`` over its own
    channel (seeded ``seed + i``).  Runs until every wearer's recording
    is exhausted or ``stop`` is set, then shuts the gateway down --
    scoring everything still queued and closing every session -- before
    reporting.
    """
    if n_wearers < 1:
        raise ValueError("n_wearers must be >= 1")
    if not records:
        raise ValueError("need at least one record to stream")
    stop = stop if stop is not None else asyncio.Event()
    channels = [
        WirelessChannel(loss_probability=loss_probability, seed=seed + i)
        for i in range(n_wearers)
    ]
    started = time.perf_counter()
    async with gateway:
        outcomes = await asyncio.gather(
            *(
                _wearer(
                    gateway,
                    f"wearer-{i:05d}",
                    records[i % len(records)],
                    i,
                    channels[i],
                    stop,
                )
                for i in range(n_wearers)
            )
        )
    wall_s = time.perf_counter() - started
    p50, p99 = gateway.latency_percentiles((50.0, 99.0))
    supervisor = (
        gateway.backend.stats()
        if isinstance(gateway.backend, SupervisedScoringBackend)
        else None
    )
    return LoadReport(
        n_wearers=n_wearers,
        wall_s=wall_s,
        windows_sent=sum(sent for sent, _ in outcomes),
        windows_vanished=sum(vanished for _, vanished in outcomes),
        packets_dropped=sum(c.packets_dropped for c in channels),
        stats=gateway.stats(),
        p50_latency_s=p50,
        p99_latency_s=p99,
        interrupted=stop.is_set(),
        leaked_sessions=gateway.active_sessions,
        supervisor=supervisor,
    )


def run_gateway_load(
    n_wearers: int = 64,
    stream_s: float = 30.0,
    batch_size: int = 256,
    queue_windows: int = 4096,
    max_inflight_per_session: int = 64,
    loss_probability: float = 0.02,
    with_quality_gate: bool = True,
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

    With ``install_sigint=True`` a SIGINT during the run triggers the
    orderly path instead of a KeyboardInterrupt mid-scoring: intake
    stops, the queue drains, sessions finalize, and the report is still
    produced (flagged ``interrupted``).

    ``supervised=True`` scores through a crash-isolated
    :class:`~repro.gateway.supervisor.SupervisedScoringBackend` (child
    process + watchdog + circuit breaker) instead of in-process; with no
    injected faults the verdict stream is bit-identical either way.
    ``fault_plan`` (a :class:`~repro.faults.runtime.RuntimeFaultPlan`)
    and ``supervisor_knobs`` (extra backend constructor arguments) are
    the chaos harness's hooks and require ``supervised=True``.

    ``platform="native"`` scores through the generated-C hot path:
    unsupervised runs use a
    :class:`~repro.gateway.supervisor.NativeBackend`, supervised runs
    ship native-platform detectors into the child (which rebuilds the
    extension from the artifact cache, so a native fault stays
    crash-isolated).  Decision values are bit-identical to NumPy either
    way, and the run falls back to NumPy when no toolchain is present.

    ``sanitize_loop=True`` runs the whole fleet under a
    :class:`~repro.analysis.sanitizer.LoopStallSanitizer`: every asyncio
    callback is timed, and any that holds the loop past
    ``stall_threshold_s`` lands in the report's ``loop_stalls`` /
    ``max_loop_stall_s`` fields -- the dynamic check behind the
    ASYNC001 lint rule.
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
    primary = fitted[DetectorVersion.ORIGINAL]
    fallbacks = {v: d for v, d in fitted.items() if v is not primary.version}
    quality_gate = (
        SignalQualityIndex() if (with_quality_gate or with_degradation) else None
    )
    degradation = DegradationController() if with_degradation else None
    backend = None
    detectors_by_key = {
        version.value: detector for version, detector in fitted.items()
    }
    if supervised:
        backend = SupervisedScoringBackend(
            detectors_by_key,
            fault_plan=fault_plan,
            **(supervisor_knobs or {}),
        )
    elif platform == "native":
        backend = NativeBackend(detectors_by_key)
    gateway = IngestionGateway(
        primary,
        quality_gate=quality_gate,
        fallbacks=fallbacks,
        degradation=degradation,
        batch_size=batch_size,
        queue_windows=queue_windows,
        max_inflight_per_session=max_inflight_per_session,
        on_verdict=on_verdict,
        backend=backend,
    )
    # A handful of distinct recordings, cycled across the fleet.
    records = [
        data.record(subject, stream_s, purpose="test")
        for subject in data.subjects[: min(4, len(data.subjects))]
    ]

    async def _run() -> LoadReport:
        stop = asyncio.Event()
        if install_sigint:
            import signal

            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGINT, stop.set)
            try:
                return await run_fleet(
                    gateway,
                    records,
                    n_wearers,
                    loss_probability=loss_probability,
                    seed=seed,
                    stop=stop,
                )
            finally:
                loop.remove_signal_handler(signal.SIGINT)
        return await run_fleet(
            gateway,
            records,
            n_wearers,
            loss_probability=loss_probability,
            seed=seed,
            stop=stop,
        )

    if not sanitize_loop:
        return asyncio.run(_run())
    with LoopStallSanitizer(threshold_s=stall_threshold_s) as sanitizer:
        report = asyncio.run(_run())
    return dataclasses.replace(
        report,
        loop_stalls=sanitizer.total_stalls,
        max_loop_stall_s=sanitizer.max_stall_s,
    )
