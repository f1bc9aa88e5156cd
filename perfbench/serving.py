"""The paced open-loop ``serve-artifacts`` workload over ``repro.gateway``.

Each wearer sends one ECG+ABP window per window period, on a schedule
fixed before the run: wearer phases are spread evenly over the period
(the seed permutes them), so the fleet offers ``n_wearers / period``
windows per second whatever the gateway does.  One scheduler coroutine
on the gateway's own loop sends every due window; it records the due
time of each window and how late the send was.  Verdict latency runs
from the *due* time to the ``on_verdict`` callback, so a stall that
delays sending is charged to every window due during it (no coordinated
omission).  A send more than ``LATE_LIMIT_S`` behind schedule fails the
run: the stated load was not offered.

A quarter of the wearers carry a two-window burst-noise motion artifact,
so the quality gate abstains on some windows and each session's
``DegradationController`` switches tiers; all three tiers score with
``platform="native"`` inside a ``SupervisedScoringBackend`` child.
"""

from __future__ import annotations

import asyncio
import gc
import math
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.adaptive.degradation import DegradationController
from repro.analysis.sanitizer import LoopStallSanitizer
from repro.core.detector import SIFTDetector
from repro.core.training import build_training_set
from repro.core.versions import DetectorVersion
from repro.faults import BurstNoiseFault
from repro.gateway import (
    IngestionGateway,
    SupervisedScoringBackend,
    window_from_slot,
)
from repro.signals.dataset import SyntheticFantasia
from repro.signals.quality import SignalQualityIndex
from repro.wiot.channel import WirelessChannel
from repro.wiot.sensor import BodySensor

from perfbench.common import cpu_s, median, percentile
from perfbench.spans import SpanRecorder, TimedBackend, TimedQualityGate

__all__ = ["Fleet", "PacedLoad", "run_serve"]

PERIOD_S = 3.0  # one window per wearer per window period
SLO_S = 3.0  # a verdict is due within one window period
N_WEARERS = 1024
LOSS = 0.02  # independent per-packet channel loss
ARTIFACT_SHARE = 0.25  # share of wearers whose recordings carry artifacts
LATE_LIMIT_S = 1.0  # a later send means the load was not offered as stated
SEND_BURST = 16  # windows sent between event-loop yields
MAX_START_OFFSET = 8  # windows into its recording a wearer may start
N_SUBJECTS = 6
DETECTOR_SEED = 2017  # the serving detectors are fixed; the seed drives the fleet
TRAIN_S = 120.0
CHECK_SAMPLE = 256  # windows per kind re-scored after the run
SETUPS = 5  # set-ups per run; setup_s is their median


@dataclass
class Fleet:
    """Every window the fleet will send, sorted by due time."""

    wearer_ids: list[str]
    due_s: np.ndarray  # relative to the start of the sending interval
    wearer: np.ndarray
    deliveries: list[tuple]  # (ECG delivery | None, ABP delivery | None)
    both_delivered: np.ndarray
    index: dict[tuple[str, int], int]
    seconds: float


def build_fleet(
    data: SyntheticFantasia,
    seed: int,
    seconds: float,
    artifact_share: float = ARTIFACT_SHARE,
    n_wearers: int = N_WEARERS,
    period: float = PERIOD_S,
) -> Fleet:
    """Schedule, channel outcomes and artifacts of every window, from the seed.

    ``period`` is the wall-clock time between a wearer's windows; the
    windows themselves always carry ``PERIOD_S`` of signal.
    """
    per_wearer = math.ceil(seconds / period)
    rng = np.random.default_rng([seed, 11])
    phase = (rng.permutation(n_wearers) + rng.random()) * period / n_wearers
    subject = rng.integers(len(data.subjects), size=n_wearers)
    offset = rng.integers(MAX_START_OFFSET, size=n_wearers)
    artifacted = rng.random(n_wearers) < artifact_share
    episode = rng.integers(0, max(1, per_wearer - 2), size=n_wearers)

    record_s = (MAX_START_OFFSET + per_wearer + 1) * PERIOD_S
    packets = []
    for subj in data.subjects:
        record = data.record(subj, record_s, purpose="test")
        packets.append(
            (
                list(BodySensor(f"{subj.subject_id}-ecg", "ecg", record).packets()),
                list(BodySensor(f"{subj.subject_id}-abp", "abp", record).packets()),
            )
        )
    burst = BurstNoiseFault(1.0)
    due, wearer, sequence, deliveries = [], [], [], []
    wearer_ids = [f"w{w:05d}" for w in range(n_wearers)]
    for w in range(n_wearers):
        ecg_packets, abp_packets = packets[subject[w]]
        channel = WirelessChannel(loss_probability=LOSS, seed=seed * 1_000_003 + w)
        fault_rng = np.random.default_rng([seed, 13, w])
        k = 0
        while phase[w] + k * period < seconds:
            seq = int(offset[w]) + k
            ecg, abp = ecg_packets[seq], abp_packets[seq]
            # A two-window motion-artifact episode per artifacted wearer.
            if artifacted[w] and episode[w] <= k < episode[w] + 2:
                ecg, abp = burst.apply(ecg, fault_rng), burst.apply(abp, fault_rng)
            deliveries.append((channel.transmit(ecg), channel.transmit(abp)))
            due.append(phase[w] + k * period)
            wearer.append(w)
            sequence.append(seq)
            k += 1
    order = np.argsort(np.asarray(due), kind="stable")
    deliveries = [deliveries[j] for j in order]
    wearer_arr = np.asarray(wearer)[order]
    sequence_arr = np.asarray(sequence)[order]
    return Fleet(
        wearer_ids=wearer_ids,
        due_s=np.asarray(due)[order],
        wearer=wearer_arr,
        deliveries=deliveries,
        both_delivered=np.array(
            [e is not None and a is not None for e, a in deliveries]
        ),
        index={
            (wearer_ids[w], int(s)): j
            for j, (w, s) in enumerate(zip(wearer_arr, sequence_arr))
        },
        seconds=float(seconds),
    )


def window_of(fleet: Fleet, j: int):
    """The window the gateway assembles from window ``j``'s two halves."""
    ecg, abp = fleet.deliveries[j]
    return window_from_slot(
        {"ecg": ecg, "abp": abp}, subject_id=fleet.wearer_ids[fleet.wearer[j]]
    )


class PacedLoad:
    """The open-loop scheduler plus the per-window outcome record."""

    def __init__(self, fleet: Fleet, recorder: SpanRecorder | None = None) -> None:
        n = len(fleet.due_s)
        self.fleet = fleet
        self.recorder = recorder
        self.sent_at = np.full(n, np.nan)
        self.verdict_at = np.full(n, np.nan)
        self.decision = np.full(n, np.nan)
        self.queue_latency = np.full(n, np.nan)
        self.abstained = np.zeros(n, dtype=bool)
        self.version: list[str | None] = [None] * n
        self.sent = 0
        self.vanished = 0
        self.verdicts = 0
        self.duplicates = 0
        self.unknown = 0
        self.t0 = 0.0
        self.end = 0.0

    def on_verdict(self, verdict) -> None:
        now = time.perf_counter()
        j = self.fleet.index.get((verdict.wearer_id, verdict.sequence))
        if j is None:
            self.unknown += 1
            return
        if not math.isnan(self.verdict_at[j]):
            self.duplicates += 1
            return
        self.verdicts += 1
        self.verdict_at[j] = now
        self.decision[j] = verdict.decision_value
        self.queue_latency[j] = verdict.latency_s
        self.abstained[j] = verdict.abstained
        self.version[j] = verdict.version
        if self.recorder is not None:
            self.recorder.record(
                "gateway.queue_to_verdict", now - verdict.latency_s, now, window=j
            )

    def _send(self, gateway: IngestionGateway, j: int, now: float) -> None:
        due = self.t0 + self.fleet.due_s[j]
        ecg, abp = self.fleet.deliveries[j]
        wearer_id = self.fleet.wearer_ids[self.fleet.wearer[j]]
        rec = self.recorder
        if rec is None:
            gateway.submit(wearer_id, ecg)
            gateway.submit(wearer_id, abp)
        else:
            span = rec.new_id()
            rec.current_parent, rec.current_window = span, j
            began = time.perf_counter()
            gateway.submit(wearer_id, ecg)
            gateway.submit(wearer_id, abp)
            rec.record(
                "gateway.submit", began, time.perf_counter(), window=j, span_id=span
            )
            rec.record("loadgen.late", due, now, window=j)
        self.sent_at[j] = now
        self.sent += 1
        if ecg is None and abp is None:
            self.vanished += 1

    async def run(self, gateway: IngestionGateway) -> None:
        """Send every window on schedule, then shut the gateway down."""
        due = self.fleet.due_s
        n = len(due)
        j = 0
        async with gateway:
            self.t0 = time.perf_counter() + 0.01
            while j < n:
                now = time.perf_counter()
                wait = self.t0 + due[j] - now
                if wait > 0:
                    await asyncio.sleep(wait)
                    continue
                sent = 0
                while j < n and sent < SEND_BURST and self.t0 + due[j] <= now:
                    self._send(gateway, j, now)
                    j += 1
                    sent += 1
                    now = time.perf_counter()
                await asyncio.sleep(0)
        self.end = time.perf_counter()

    # -- results -----------------------------------------------------------

    def latencies_s(self) -> np.ndarray:
        """Due time to verdict, per window (NaN: no verdict)."""
        return self.verdict_at - (self.t0 + self.fleet.due_s)

    def lateness_s(self) -> np.ndarray:
        sent = ~np.isnan(self.sent_at)
        return (self.sent_at - (self.t0 + self.fleet.due_s))[sent]

    def on_time(self) -> np.ndarray:
        latency = self.latencies_s()
        return ~np.isnan(latency) & (latency <= SLO_S)

    def goodput_wps(self) -> float:
        """On-time verdicts per second, over the whole sending interval."""
        return float(self.on_time().sum()) / self.fleet.seconds

    def slo_miss_frac(self) -> float:
        pool = self.fleet.both_delivered
        return float((pool & ~self.on_time()).sum()) / max(1, int(pool.sum()))


# -- set-up ------------------------------------------------------------------


@dataclass
class Deployment:
    """Everything built before the timed interval."""

    detectors: dict[str, SIFTDetector]
    fleet: Fleet
    backend: SupervisedScoringBackend | None  # started
    stage_s: dict[str, float] = field(default_factory=dict)

    def make_backend(self) -> SupervisedScoringBackend:
        """A started scoring backend like the one set up."""
        backend = SupervisedScoringBackend(self.detectors)
        backend.start()
        return backend

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()


def train_detectors(versions, native: bool, stage_s: dict[str, float]):
    """The serving detectors, fitted as ``train_serving_detectors`` fits them."""
    data = SyntheticFantasia(n_subjects=N_SUBJECTS, seed=DETECTOR_SEED)
    victim, others = data.subjects[0], data.subjects[1:]
    began = time.perf_counter()
    training = data.record(victim, TRAIN_S, purpose="train")
    donors = [data.record(s, TRAIN_S / 2, purpose="train") for s in others[:3]]
    stage_s["signals.record_s"] = time.perf_counter() - began
    stage_s["core.training_set_s"] = stage_s["ml.svm_fit_s"] = 0.0
    detectors = {}
    for version in versions:
        detector = SIFTDetector(version=version)
        began = time.perf_counter()
        training_set = build_training_set(
            detector.extractor, training, donors, window_s=detector.window_s
        )
        fitted = time.perf_counter()
        detector.fit_training_set(training_set, subject_id=training.subject_id)
        stage_s["core.training_set_s"] += fitted - began
        stage_s["ml.svm_fit_s"] += time.perf_counter() - fitted
        if native:
            detector.platform = "native"
            if not detector.native_active:
                raise RuntimeError(f"native scoring unavailable: {detector.native_error}")
        detectors[detector.version.value] = detector
    return data, detectors


def set_up(seed: int, seconds: float, tmp: str) -> Deployment:
    """Detectors, recordings, packets, native compile and child spawn."""
    os.environ["REPRO_NATIVE_CACHE"] = tempfile.mkdtemp(prefix="native-", dir=tmp)
    stage_s: dict[str, float] = {}
    data, detectors = train_detectors(list(DetectorVersion), True, stage_s)
    fleet = build_fleet(data, seed, seconds)
    deployment = Deployment(detectors, fleet, backend=None, stage_s=stage_s)
    deployment.backend = deployment.make_backend()
    # Wait for the child: score one window per tier through it.
    j = int(np.flatnonzero(fleet.both_delivered)[0])
    for key in detectors:
        deployment.backend.score(key, [window_of(fleet, j)])
    return deployment


def make_gateway(
    deployment: Deployment,
    load: PacedLoad,
    backend=None,
    recorder: SpanRecorder | None = None,
):
    """A fresh gateway over the deployment's detectors (and its proxies)."""
    detectors = deployment.detectors
    primary = detectors[DetectorVersion.ORIGINAL.value]
    fallbacks = {d.version: d for d in detectors.values() if d is not primary}
    gate = SignalQualityIndex()
    if recorder is not None:
        gate = TimedQualityGate(gate, recorder)
        backend = TimedBackend(backend, recorder, gate)
    return IngestionGateway(
        primary,
        quality_gate=gate,
        fallbacks=fallbacks,
        # Short hysteresis, so tier switches fit a run of a few windows
        # per wearer: one bad window steps down, two clean ones step up.
        degradation=DegradationController(degrade_after=1, recover_after=2),
        on_verdict=load.on_verdict,
        backend=backend,
    )


# -- one measured interval -------------------------------------------------


@dataclass
class Interval:
    load: PacedLoad
    gateway: IngestionGateway
    cpu_s: float
    supervisor: object | None
    stalls_ms: float = 0.0


def measure(deployment: Deployment, backend, recorder=None, sanitize=False) -> Interval:
    """Drive one paced interval through a fresh gateway; CPU includes children."""
    load = PacedLoad(deployment.fleet, recorder=recorder)
    gateway = make_gateway(deployment, load, backend=backend, recorder=recorder)
    gc.collect()  # set-up garbage is not the gateway's to collect
    cpu0 = cpu_s()
    stalls_ms = 0.0
    if sanitize:
        with LoopStallSanitizer(threshold_s=0.002, max_records=1_000_000) as sanitizer:
            asyncio.run(load.run(gateway))
        stalls_ms = sanitizer.max_stall_s * 1e3
    else:
        asyncio.run(load.run(gateway))
    # shutdown() closed the backend and reaped any child, so its CPU is
    # in the children's times now.
    used = cpu_s() - cpu0
    return Interval(load, gateway, used, backend.stats(), stalls_ms)


def check(deployment: Deployment, iv: Interval, seed: int) -> list[str]:
    """Every correctness check of a serving run; returns the failures."""
    load, fleet, stats = iv.load, deployment.fleet, iv.gateway.stats()
    problems = []
    disposed = (
        stats.verdicts + stats.windows_shed + stats.incomplete_windows + load.vanished
    )
    if disposed != load.sent:
        problems.append(f"conservation: {disposed} disposed != {load.sent} sent")
    if load.verdicts != stats.verdicts or load.duplicates or load.unknown:
        problems.append(
            f"verdict stream: {load.verdicts} seen vs {stats.verdicts} counted, "
            f"{load.duplicates} duplicates, {load.unknown} unknown"
        )
    if iv.gateway.active_sessions:
        problems.append(f"{iv.gateway.active_sessions} sessions leaked")
    if multiprocessing.active_children():
        problems.append("a child process outlived the gateway")
    late = load.lateness_s()
    if late.size and late.max() > LATE_LIMIT_S:
        problems.append(f"a send ran {late.max():.3f} s behind schedule")
    if iv.supervisor is not None and (
        iv.supervisor.restarts or iv.supervisor.windows_degraded
        or iv.supervisor.windows_unscorable
    ):
        problems.append(f"supervisor was not clean: {iv.supervisor}")
    # Re-score a seeded sample of scored windows offline, per tier.
    rng = np.random.default_rng([seed, 17])
    has = ~np.isnan(load.verdict_at)
    scored = np.flatnonzero(has & ~load.abstained)
    sample = rng.choice(scored, size=min(CHECK_SAMPLE, scored.size), replace=False)
    by_tier: dict[str, list[int]] = {}
    for j in sample:
        by_tier.setdefault(load.version[j], []).append(int(j))
    for key, idx in by_tier.items():
        values = deployment.detectors[key].decision_values(
            [window_of(fleet, j) for j in idx]
        )
        if not np.array_equal(values, load.decision[idx]):
            problems.append(f"{key}: emitted decision values differ from a re-score")
    gate = SignalQualityIndex()
    abstained = np.flatnonzero(has & load.abstained)
    for j in rng.choice(abstained, size=min(CHECK_SAMPLE, abstained.size), replace=False):
        if gate.assess(window_of(fleet, int(j))).usable:
            problems.append(f"window {j} abstained but passes the quality gate")
            break
    return problems


def end_to_end(iv: Interval) -> dict[str, float]:
    d = iv.load
    latency = d.latencies_s()
    return {
        "latency_ms": percentile(latency[~np.isnan(latency)], 50.0) * 1e3,
        "goodput_wps": d.goodput_wps(),
        "cpu_us_per_window": iv.cpu_s / max(1, d.verdicts) * 1e6,
    }


def per_layer(
    deployment: Deployment, iv: Interval, recorder: SpanRecorder
) -> dict[str, float]:
    d, stats = iv.load, iv.gateway.stats()
    wall = d.end - d.t0
    submit = recorder.self_times("gateway.submit")
    sqi = recorder.durations("signals.sqi")
    score = recorder.durations("scoring.score")
    proxy = iv.gateway.backend
    scored = [v for v, a in zip(d.version, d.abstained) if v is not None and not a]
    share = {
        v.value: (scored.count(v.value) / len(scored) if scored else 0.0)
        for v in DetectorVersion
    }
    queue = d.queue_latency[~np.isnan(d.queue_latency)]
    layers = {
        "loadgen.lateness_p99_ms": percentile(d.lateness_s(), 99.0) * 1e3,
        "gateway.submit_us_p50": percentile(submit, 50.0) * 1e6,
        "gateway.submit_us_p99": percentile(submit, 99.0) * 1e6,
        "gateway.submit_busy_frac": sum(submit) / wall,
        "signals.sqi_us_p50": percentile(sqi, 50.0) * 1e6,
        "signals.sqi_busy_frac": sum(sqi) / wall,
        "gateway.queue_to_verdict_ms_p50": percentile(queue, 50.0) * 1e3,
        "gateway.queue_to_verdict_ms_p99": percentile(queue, 99.0) * 1e3,
        "gateway.batch_windows_mean": stats.mean_batch_size,
        "scoring.score_us_per_window": sum(score) / max(1, proxy.windows) * 1e6,
        "scoring.busy_frac": sum(score) / wall,
        "scoring.calls_per_batch": proxy.calls / max(1, stats.batches),
        "gateway.shed": stats.windows_shed,
        "gateway.incomplete": stats.incomplete_windows,
        "gateway.unscorable": stats.windows_unscorable,
        "gateway.abstain_frac": stats.windows_abstained / max(1, stats.verdicts),
        "adaptive.tier_share.original": share["original"],
        "adaptive.tier_share.simplified": share["simplified"],
        "adaptive.tier_share.reduced": share["reduced"],
        "loop.max_stall_ms": iv.stalls_ms,
        "supervisor.restarts": iv.supervisor.restarts,
        "supervisor.windows_degraded": iv.supervisor.windows_degraded,
        **deployment.stage_s,
    }
    return layers


def run_serve(seed: int, seconds: float, trace: bool, tmp: str, log) -> dict:
    """One benchmark run of ``serve-artifacts``; returns the result fields."""
    name = "serve-artifacts"
    setups, deployment = [], None
    for _ in range(1 if trace else SETUPS):
        if deployment is not None:
            deployment.close()
        began = time.perf_counter()
        deployment = set_up(seed, seconds, tmp)
        setups.append(time.perf_counter() - began)
    try:
        iv = measure(deployment, deployment.backend)
        problems = check(deployment, iv, seed)
        metrics = end_to_end(iv)
        latency = iv.load.latencies_s()
        p99_ms = percentile(latency[~np.isnan(latency)], 99.0) * 1e3
        log(
            f"{name}: offered {len(deployment.fleet.due_s)} windows, sent "
            f"{iv.load.sent}, verdicts {iv.load.verdicts}; p50 "
            f"{metrics['latency_ms']:.2f} ms, p99 {p99_ms:.2f} ms, goodput "
            f"{metrics['goodput_wps']:.1f}/s, cpu {metrics['cpu_us_per_window']:.0f} us; "
            f"set-ups {['%.3f' % s for s in setups]} s"
        )
        if trace:
            recorder = SpanRecorder()
            traced = measure(deployment, deployment.make_backend(), recorder, sanitize=True)
            problems += check(deployment, traced, seed)
            traced_e2e = end_to_end(traced)
            layers = per_layer(deployment, traced, recorder)
            # Whole-run tail and misses come from the untraced interval.
            layers["loadgen.verdict_p99_ms"] = p99_ms
            layers["loadgen.slo_miss_frac"] = iv.load.slo_miss_frac()
            layers["trace.goodput_ratio"] = (
                traced_e2e["goodput_wps"] / metrics["goodput_wps"]
            )
            layers["trace.latency_ratio"] = traced_e2e["latency_ms"] / metrics["latency_ms"]
            recorder.write(os.path.join(os.path.dirname(tmp), f"spans-{name}-{seed}.jsonl"))
            metrics = layers
        else:
            metrics["setup_s"] = median(setups)
    finally:
        deployment.close()
    return {
        "problems": problems,
        "attempted": len(deployment.fleet.due_s),
        "metrics": metrics,
    }
