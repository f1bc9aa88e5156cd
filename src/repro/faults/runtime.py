"""Deterministic runtime chaos harness for the supervised gateway.

The sensor/channel faults elsewhere in this package attack the *data*;
this module attacks the *runtime*: the scorer child crashes mid-batch,
wedges without heartbeating, answers late, or reports a poisoned batch;
the snapshot file loses its tail; the whole gateway dies mid-stream and
restarts from its last snapshot.  Every fault fires on a reproducible
schedule -- a :class:`RuntimeFaultPlan` keyed by the supervisor's global
request ordinal, built from an explicit seed -- so a chaos run is a
regression test, not a dice roll.

Three runners cover the fault surface, each asserting its invariants and
returning a structured report the orchestrator's ``chaos`` study lands
in ``BENCH_*.json``:

* :func:`run_chaos_schedule` -- drives a wearer fleet through a
  supervised gateway while the plan injects scorer crash / stall / slow
  / poison faults child-side, then asserts the conservation invariant
  (``verdicts + shed + incomplete + vanished == sent``), zero leaked
  sessions, and that every injected fault class was actually *detected*
  by its intended signal.
* :func:`run_restart_chaos` -- streams a small fleet, snapshots on a
  cadence, kills the gateway mid-stream (``abort``: no drain, no
  finalize), restores a fresh gateway from the store and replays from
  each wearer's resume point, then proves the combined verdict stream is
  bit-identical to an uninterrupted run outside the restart window and
  that duplicates are confined *inside* it.
* :func:`run_truncation_chaos` -- truncates a snapshot file at every
  byte boundary class (mid-session-line, mid-commit, clean) and asserts
  the store always falls back to the newest fully-committed epoch --
  never crashing, never serving a torn epoch.

Invariant violations raise :class:`ChaosInvariantError`; the CLI maps
that to a non-zero exit so CI's chaos smoke fails loudly.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.gateway.gateway import IngestionGateway
from repro.gateway.loadgen import LoadReport, run_gateway_load, train_serving_detectors
from repro.gateway.session import SessionVerdict
from repro.gateway.snapshot import SessionSnapshotStore
from repro.wiot.channel import DeliveredPacket
from repro.wiot.sensor import BodySensor

__all__ = [
    "ChaosInvariantError",
    "ChaosReport",
    "RestartChaosReport",
    "RuntimeFaultPlan",
    "TruncationChaosReport",
    "run_chaos_schedule",
    "run_restart_chaos",
    "run_truncation_chaos",
    "schedule_names",
]


class ChaosInvariantError(AssertionError):
    """A chaos run violated a serving invariant (this is a release blocker)."""


@dataclass(frozen=True)
class RuntimeFaultPlan:
    """Which supervisor request ordinals fail, and how.

    Ordinals are global and per-*attempt* (a retried batch gets a fresh
    ordinal), so a plan poisons specific attempts, not batches forever.
    At most one action per ordinal; construction rejects overlaps so a
    schedule is unambiguous.  The plan crosses the process boundary into
    the scorer child (it must stay picklable: plain frozensets/dicts).
    """

    crash: frozenset = frozenset()
    stall: frozenset = frozenset()
    slow: dict = field(default_factory=dict)  # ordinal -> delay seconds
    poison: frozenset = frozenset()

    def __post_init__(self) -> None:
        sets = [self.crash, self.stall, frozenset(self.slow), self.poison]
        total = sum(len(s) for s in sets)
        if len(frozenset().union(*sets)) != total:
            raise ValueError("fault plan assigns multiple actions to one ordinal")

    @property
    def n_faults(self) -> int:
        return (
            len(self.crash) + len(self.stall) + len(self.slow) + len(self.poison)
        )

    def action_for(self, ordinal: int) -> tuple[str, float] | None:
        """The injected action for one request attempt, if any."""
        if ordinal in self.crash:
            return ("crash", 0.0)
        if ordinal in self.stall:
            return ("stall", 0.0)
        if ordinal in self.slow:
            return ("slow", float(self.slow[ordinal]))
        if ordinal in self.poison:
            return ("poison", 0.0)
        return None

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_ordinals: int,
        crash_rate: float = 0.0,
        stall_rate: float = 0.0,
        slow_rate: float = 0.0,
        slow_s: float = 0.0,
        poison_rate: float = 0.0,
    ) -> "RuntimeFaultPlan":
        """Draw a reproducible plan over ordinals ``1..n_ordinals``.

        Each ordinal suffers at most one fault; the draw is a single
        pass over a seeded permutation, so the same seed always yields
        the same plan regardless of rate order.
        """
        rng = np.random.default_rng(seed)
        ordinals = rng.permutation(np.arange(1, n_ordinals + 1))

        def _count(rate: float) -> int:
            # A requested fault kind always fires at least once -- a
            # rate rounding to zero injections would silently test
            # nothing.
            return max(1, int(round(rate * n_ordinals))) if rate > 0 else 0

        counts = {
            "crash": _count(crash_rate),
            "stall": _count(stall_rate),
            "slow": _count(slow_rate),
            "poison": _count(poison_rate),
        }
        if sum(counts.values()) > n_ordinals:
            raise ValueError("fault rates sum past 1.0")
        cursor = 0
        picked: dict[str, list[int]] = {}
        for kind, count in counts.items():
            picked[kind] = [int(o) for o in ordinals[cursor : cursor + count]]
            cursor += count
        return cls(
            crash=frozenset(picked["crash"]),
            stall=frozenset(picked["stall"]),
            slow={o: float(slow_s) for o in picked["slow"]},
            poison=frozenset(picked["poison"]),
        )


# -- schedule library ---------------------------------------------------

#: Supervisor knobs every chaos schedule runs with: tight watchdog and
#: backoff timings so a smoke run detects and recovers in milliseconds,
#: not production seconds.  The *policy* under test is identical.
_CHAOS_SUPERVISOR_KNOBS = {
    "heartbeat_interval_s": 0.01,
    "heartbeat_timeout_s": 0.15,
    "batch_timeout_s": 0.9,
    "max_retries": 2,
    "backoff_base_s": 0.01,
    "backoff_cap_s": 0.05,
    "breaker_threshold": 2,
    "breaker_cooldown_batches": 4,
}

#: Named fault mixes (rates over request ordinals).  ``slow_s`` is set
#: beyond the batch timeout so slow batches are *detected*, not merely
#: tolerated.
_SCHEDULES: dict[str, dict] = {
    "crash": {"crash_rate": 0.2},
    "stall": {"stall_rate": 0.12},
    "slow": {"slow_rate": 0.12, "slow_s": 1.2},
    "poison": {"poison_rate": 0.2},
    "mixed": {
        "crash_rate": 0.08,
        "stall_rate": 0.06,
        "slow_rate": 0.06,
        "slow_s": 1.2,
        "poison_rate": 0.08,
    },
}

#: Which SupervisorStats counter must move for each injected fault kind
#: (the detection-signal contract of the failure-mode table).
_DETECTOR_OF = {
    "crash": "crashes",
    "stall": "stalls",
    "slow": "timeouts",
    "poison": "poisons",
}


def schedule_names() -> list[str]:
    """The named fault schedules, in presentation order."""
    return list(_SCHEDULES)


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one seeded fault schedule against a supervised fleet."""

    schedule: str
    seed: int
    planned_faults: int
    report: LoadReport
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_payload(self) -> dict:
        """Flat JSON-ready summary of the run."""
        sup = self.report.supervisor
        stats = self.report.stats
        return {
            "schedule": self.schedule,
            "seed": self.seed,
            "planned_faults": self.planned_faults,
            "windows_sent": self.report.windows_sent,
            "verdicts": stats.verdicts,
            "windows_shed": stats.windows_shed,
            "incomplete_windows": stats.incomplete_windows,
            "windows_vanished": self.report.windows_vanished,
            "windows_unscorable": stats.windows_unscorable,
            "conservation_ok": self.report.conservation_ok,
            "faults_detected": sup.faults,
            "crashes": sup.crashes,
            "stalls": sup.stalls,
            "timeouts": sup.timeouts,
            "poisons": sup.poisons,
            "restarts": sup.restarts,
            "breaker_trips": sup.breaker_trips,
            "windows_degraded": sup.windows_degraded,
            "mean_recovery_ms": sup.mean_recovery_s * 1e3,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def run_chaos_schedule(
    schedule: str,
    seed: int = 2017,
    n_wearers: int = 8,
    stream_s: float = 12.0,
    batch_size: int = 8,
    strict: bool = True,
) -> ChaosReport:
    """Drive a supervised fleet through one named fault schedule.

    The plan is drawn over an ordinal budget sized from the expected
    batch count, injected child-side, and the run is then audited:
    conservation must close exactly, no session may leak, and every
    fault kind the plan injected must have been detected by its intended
    signal (a crash plan that records zero crashes means the watchdog is
    blind, not that the fleet got lucky).  ``strict=True`` raises
    :class:`ChaosInvariantError` on any violation; ``strict=False``
    returns the report with ``violations`` populated (the orchestrator
    records outcomes; CI enforces them).
    """
    if schedule not in _SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; pick from {schedule_names()}"
        )
    rates = _SCHEDULES[schedule]
    # Ordinal budget: a conservative *lower* bound on how many score
    # requests the run will actually issue (total windows over twice the
    # batch size -- batches can close smaller on linger, never larger).
    # Planning inside the bound guarantees every planned fault fires;
    # requests past it (including retries) simply run clean.
    windows_per_wearer = max(1, int(stream_s / 3.0))
    n_ordinals = max(4, (n_wearers * windows_per_wearer) // (2 * batch_size))
    plan = RuntimeFaultPlan.seeded(seed, n_ordinals, **rates)
    report = run_gateway_load(
        n_wearers=n_wearers,
        stream_s=stream_s,
        batch_size=batch_size,
        loss_probability=0.02,
        seed=seed,
        supervised=True,
        fault_plan=plan,
        supervisor_knobs=dict(_CHAOS_SUPERVISOR_KNOBS),
    )
    violations: list[str] = []
    if not report.conservation_ok:
        stats = report.stats
        violations.append(
            "conservation violated: "
            f"{stats.verdicts} verdicts + {stats.windows_shed} shed + "
            f"{stats.incomplete_windows} incomplete + "
            f"{report.windows_vanished} vanished != "
            f"{report.windows_sent} sent"
        )
    if report.leaked_sessions:
        violations.append(f"{report.leaked_sessions} sessions leaked")
    sup = report.supervisor
    planned_by_kind = {
        "crash": len(plan.crash),
        "stall": len(plan.stall),
        "slow": len(plan.slow),
        "poison": len(plan.poison),
    }
    for kind, planned in planned_by_kind.items():
        counter = _DETECTOR_OF[kind]
        if planned > 0 and getattr(sup, counter) == 0:
            violations.append(
                f"injected {planned} {kind} fault(s) but the "
                f"{counter!r} detection counter never moved"
            )
    chaos = ChaosReport(
        schedule=schedule,
        seed=seed,
        planned_faults=plan.n_faults,
        report=report,
        violations=tuple(violations),
    )
    if strict and not chaos.ok:
        raise ChaosInvariantError("; ".join(chaos.violations))
    return chaos


# -- restart-mid-stream chaos ------------------------------------------


@dataclass(frozen=True)
class RestartChaosReport:
    """Outcome of one kill-and-restore run against the snapshot plane."""

    n_wearers: int
    n_windows_per_wearer: int
    snapshot_window: int  # windows verdicted before the snapshot
    crash_window: int  # windows verdicted before the kill
    restart_window_verdicts: int  # duplicated verdicts (allowed zone)
    bit_identical_outside_restart: bool
    episodes_match: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _verdict_key(verdict: SessionVerdict) -> tuple:
    """The bit-identity fingerprint of one verdict.

    Decision values compare by *bit pattern* (NaN abstains included), so
    two runs agree only if scoring was literally identical.
    """
    return (
        verdict.sequence,
        verdict.abstained,
        np.float64(verdict.decision_value).tobytes(),
        verdict.altered,
        verdict.version,
    )


def _wearer_deliveries(
    detectors_data, n_wearers: int, stream_s: float
) -> dict[str, list[tuple[DeliveredPacket, DeliveredPacket]]]:
    """Lossless per-wearer delivery pairs (the restart harness replays
    from exact sequence numbers, so the channel must not drop)."""
    data = detectors_data
    records = [
        data.record(subject, stream_s, purpose="test")
        for subject in data.subjects[: min(4, len(data.subjects))]
    ]
    streams: dict[str, list[tuple[DeliveredPacket, DeliveredPacket]]] = {}
    for i in range(n_wearers):
        record = records[i % len(records)]
        ecg = BodySensor(f"w{i}-ecg", "ecg", record)
        abp = BodySensor(f"w{i}-abp", "abp", record)
        streams[f"wearer-{i:05d}"] = [
            (
                DeliveredPacket(packet=e, arrival_time_s=e.start_time_s),
                DeliveredPacket(packet=a, arrival_time_s=a.start_time_s),
            )
            for e, a in zip(ecg.packets(), abp.packets())
        ]
    return streams


async def _feed_windows(
    gateway: IngestionGateway,
    streams: dict[str, list[tuple[DeliveredPacket, DeliveredPacket]]],
    start: int,
    stop: int,
) -> None:
    """Submit window indexes ``start..stop-1`` of every wearer, round-robin."""
    for index in range(start, stop):
        for wearer_id, pairs in streams.items():
            if index >= len(pairs):
                continue
            ecg, abp = pairs[index]
            gateway.submit(wearer_id, ecg)
            gateway.submit(wearer_id, abp)
        await asyncio.sleep(0)


def run_restart_chaos(
    store_path: str | Path,
    seed: int = 2017,
    n_wearers: int = 4,
    stream_s: float = 30.0,
    snapshot_at: int = 4,
    crash_at: int = 7,
    strict: bool = True,
) -> RestartChaosReport:
    """Kill the gateway mid-stream and prove the restore contract.

    Runs three gateways over identical per-wearer streams: a reference
    that never stops; a victim that snapshots after ``snapshot_at``
    windows, keeps serving, and is killed (``abort``, no drain/finalize)
    after ``crash_at``; and a successor restored from the store that
    replays from each wearer's resume point.  Asserts:

    * every wearer resumes (resume points exist for all sessions);
    * outside the restart window ``[snapshot_at, crash_at)`` (window
      indexes verdicted after the snapshot but before the kill) each
      window has exactly one verdict, bit-identical to the reference;
    * inside it, duplicates are allowed but must be bit-identical too
      (the restart re-scores, it never re-invents);
    * final episodes per wearer match the reference exactly.
    """
    if not 0 < snapshot_at < crash_at:
        raise ValueError("need 0 < snapshot_at < crash_at")
    data, fitted = train_serving_detectors(versions=["original"], seed=seed)
    primary = next(iter(fitted.values()))
    streams = _wearer_deliveries(data, n_wearers, stream_s)
    n_windows = min(len(pairs) for pairs in streams.values())
    if crash_at >= n_windows:
        raise ValueError(
            f"crash_at={crash_at} must precede end of stream ({n_windows})"
        )
    store = SessionSnapshotStore(store_path)

    def _gateway(sink: list[SessionVerdict]) -> IngestionGateway:
        # Backpressure disabled on purpose: the restart contract is
        # about state continuity; shed windows would just blur the
        # verdict comparison.
        return IngestionGateway(
            primary,
            batch_size=16,
            linger_s=0.0,
            queue_windows=65536,
            max_inflight_per_session=65536,
            on_verdict=sink.append,
        )

    reference: list[SessionVerdict] = []
    before: list[SessionVerdict] = []
    after: list[SessionVerdict] = []
    episodes_ref: dict[str, list] = {}
    episodes_got: dict[str, list] = {}

    async def _run() -> None:
        # 1. The uninterrupted reference.
        ref = _gateway(reference)
        ref.start()
        await _feed_windows(ref, streams, 0, n_windows)
        await ref.drain()
        for wearer_id in streams:
            episodes_ref[wearer_id] = list(ref.session(wearer_id).episodes)
        await ref.shutdown()
        # 2. The victim: snapshot, keep serving, die.
        victim = _gateway(before)
        victim.start()
        await _feed_windows(victim, streams, 0, snapshot_at)
        await victim.snapshot(store)
        await _feed_windows(victim, streams, snapshot_at, crash_at)
        await victim.drain()  # verdicts up to crash_at are emitted...
        await victim.abort()  # ...then the process "dies": no finalize.
        # 3. The successor: restore, replay from the resume points.
        successor = _gateway(after)
        resume_points = successor.restore_sessions(store)
        successor.start()
        resume_from = min(
            (point + 1 for point in resume_points.values()),
            default=0,
        )
        await _feed_windows(successor, streams, resume_from, n_windows)
        await successor.drain()
        for wearer_id in streams:
            episodes_got[wearer_id] = list(
                successor.session(wearer_id).episodes
            )
        await successor.shutdown()
        if not resume_points:
            raise ChaosInvariantError("restore produced no resume points")
        missing = set(streams) - set(resume_points)
        if missing:
            raise ChaosInvariantError(
                f"wearers lost across restart: {sorted(missing)}"
            )

    asyncio.run(_run())

    violations: list[str] = []
    restart_duplicates = 0
    by_wearer_ref: dict[str, dict[int, tuple]] = {}
    for verdict in reference:
        by_wearer_ref.setdefault(verdict.wearer_id, {})[verdict.sequence] = (
            _verdict_key(verdict)
        )
    combined: dict[str, dict[int, list[tuple]]] = {}
    for verdict in [*before, *after]:
        combined.setdefault(verdict.wearer_id, {}).setdefault(
            verdict.sequence, []
        ).append(_verdict_key(verdict))
    for wearer_id, expected in by_wearer_ref.items():
        got = combined.get(wearer_id, {})
        for sequence, key in expected.items():
            keys = got.get(sequence, [])
            if not keys:
                violations.append(
                    f"{wearer_id} window {sequence}: verdict lost"
                )
                continue
            if any(k != key for k in keys):
                violations.append(
                    f"{wearer_id} window {sequence}: verdict differs "
                    "from the uninterrupted run"
                )
            if len(keys) > 1:
                restart_duplicates += len(keys) - 1
                if not snapshot_at <= sequence < crash_at:
                    violations.append(
                        f"{wearer_id} window {sequence}: duplicated "
                        "outside the restart window"
                    )
        extra = set(got) - set(expected)
        if extra:
            violations.append(
                f"{wearer_id}: verdicts for never-referenced windows "
                f"{sorted(extra)}"
            )
    episodes_match = episodes_ref == episodes_got
    if not episodes_match:
        violations.append("episode history diverged across the restart")
    report = RestartChaosReport(
        n_wearers=n_wearers,
        n_windows_per_wearer=n_windows,
        snapshot_window=snapshot_at,
        crash_window=crash_at,
        restart_window_verdicts=restart_duplicates,
        bit_identical_outside_restart=not any(
            "differs" in v or "lost" in v or "outside" in v for v in violations
        ),
        episodes_match=episodes_match,
        violations=tuple(violations),
    )
    if strict and not report.ok:
        raise ChaosInvariantError("; ".join(report.violations))
    return report


# -- snapshot truncation chaos ------------------------------------------


@dataclass(frozen=True)
class TruncationChaosReport:
    """Outcome of tail-truncating a snapshot file at every byte."""

    file_bytes: int
    points_checked: int
    recovered_epochs: tuple[int, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def run_truncation_chaos(
    work_dir: str | Path,
    seed: int = 2017,
    n_wearers: int = 2,
    stream_s: float = 18.0,
    n_points: int = 64,
    strict: bool = True,
) -> TruncationChaosReport:
    """Crash the snapshot *file* instead of the process.

    Writes two committed epochs by actually serving a small fleet, then
    replays power-loss at ``n_points`` evenly spaced truncation lengths
    (plus the exact commit boundaries).  At every point the store must
    load without raising and return the newest epoch whose commit line
    survived intact -- epoch 2 only with its commit, epoch 1 when the
    tail ate epoch 2, nothing when even epoch 1 is torn.  Each recovered
    epoch must also restore cleanly into a fresh gateway.
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    data, fitted = train_serving_detectors(versions=["original"], seed=seed)
    primary = next(iter(fitted.values()))
    streams = _wearer_deliveries(data, n_wearers, stream_s)
    n_windows = min(len(pairs) for pairs in streams.values())
    source = work_dir / "snapshots.jsonl"
    store = SessionSnapshotStore(source)

    def _gateway() -> IngestionGateway:
        return IngestionGateway(
            primary,
            batch_size=16,
            linger_s=0.0,
            queue_windows=65536,
            max_inflight_per_session=65536,
        )

    async def _write_epochs() -> None:
        gateway = _gateway()
        gateway.start()
        await _feed_windows(gateway, streams, 0, n_windows // 2)
        await gateway.snapshot(store)
        await _feed_windows(gateway, streams, n_windows // 2, n_windows)
        await gateway.snapshot(store)
        await gateway.shutdown()

    asyncio.run(_write_epochs())
    blob = source.read_bytes()
    points = sorted(
        {
            *(int(round(f * len(blob))) for f in np.linspace(0.0, 1.0, n_points)),
            len(blob),
        }
    )
    violations: list[str] = []
    recovered: list[int] = []
    torn = work_dir / "snapshots.torn.jsonl"
    for cut in points:
        torn.write_bytes(blob[:cut])
        torn_store = SessionSnapshotStore(torn)
        try:
            loaded = torn_store.load()
        except Exception as exc:  # noqa: BLE001 -- any raise is the failure
            violations.append(
                f"truncation at byte {cut}: load raised {type(exc).__name__}"
            )
            continue
        if loaded is None:
            recovered.append(0)
            if cut == len(blob):
                violations.append("untruncated file lost both epochs")
            continue
        epoch, _, session_states = loaded
        recovered.append(epoch)
        probe = _gateway()
        try:
            resume_points = probe.restore_sessions(torn_store)
        except Exception as exc:  # noqa: BLE001 -- any raise is the failure
            violations.append(
                f"truncation at byte {cut}: restore of epoch {epoch} "
                f"raised {type(exc).__name__}"
            )
            continue
        if sorted(resume_points) != sorted(
            state.wearer_id for state in session_states
        ):
            violations.append(
                f"truncation at byte {cut}: epoch {epoch} restored the "
                "wrong session set"
            )
    if recovered and max(recovered) < 2:
        violations.append("the fully intact file never recovered epoch 2")
    if any(
        later < earlier
        for earlier, later in zip(recovered, recovered[1:])
    ):
        violations.append("recovered epoch went backwards as bytes grew")
    report = TruncationChaosReport(
        file_bytes=len(blob),
        points_checked=len(points),
        recovered_epochs=tuple(recovered),
        violations=tuple(violations),
    )
    if strict and not report.ok:
        raise ChaosInvariantError("; ".join(report.violations))
    return report
