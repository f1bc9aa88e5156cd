"""The asyncio ingestion gateway: live serving over the batched path.

Thousands of concurrent wearers each produce one 3-second window every 3
seconds -- individually trivial, collectively a throughput problem if
every window pays the per-call overhead of scoring it alone.  The
gateway keeps per-wearer state in :class:`~repro.gateway.session
.WearerSession` objects and pushes every *assembled* window into one
shared micro-batch queue; a single batcher task drains the queue, groups
windows by the fitted detector their session's tier selected, and scores
each group in one :meth:`~repro.core.detector.SIFTDetector
.decision_values` call.  Batched scores are bit-identical to scoring
each window alone, and the queue is FIFO, so every session observes exactly the
verdict sequence a per-wearer sequential run would have produced -- the
micro-batching is invisible except in throughput.

Backpressure is explicit, never silent:

* the shared queue is bounded (``queue_windows``); when it is full the
  incoming window is shed and counted (``windows_shed_queue``);
* each session is bounded (``max_inflight_per_session``); a wearer whose
  windows pile up faster than they are scored -- a slow consumer in
  classic backpressure terms -- is shed *individually*
  (``windows_shed_session``) without degrading anyone else.

A shed window is accounted exactly like a channel loss: the wearer's
``windows_shed`` counter and the gateway totals record it, and the
debouncer never sees it.  All latency timing uses
``time.perf_counter()``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.adaptive.degradation import DegradationController
from repro.core.detector import SIFTDetector
from repro.core.versions import DetectorVersion
from repro.gateway.session import SessionVerdict, WearerSession
from repro.gateway.supervisor import (
    InProcessBackend,
    ScoringBackend,
    ScoringUnavailable,
)
from repro.signals.dataset import SignalWindow
from repro.signals.quality import SignalQualityIndex
from repro.wiot.channel import DeliveredPacket

if TYPE_CHECKING:
    from repro.gateway.snapshot import SessionSnapshotStore

__all__ = ["GatewayStats", "IngestionGateway"]

#: Queue sentinel that tells the batcher to drain and exit.
_STOP = object()


@dataclass(frozen=True)
class _PendingWindow:
    """One assembled window waiting in the micro-batch queue."""

    session: WearerSession
    sequence: int
    time_s: float
    window: SignalWindow
    detector: SIFTDetector | None  # None = SQI-gated abstain
    sqi: float | None
    enqueued_at: float  # perf_counter timestamp


@dataclass
class GatewayStats:
    """Aggregate accounting across live and closed sessions.

    The gateway keeps one of these as its live record: its own counters
    plus the summed counts of every finalized session, with
    ``sessions_active`` left at zero.  :meth:`IngestionGateway.stats`
    returns a copy with the live sessions added and ``sessions_active``
    filled in; a snapshot epoch persists the record itself.
    """

    sessions_started: int = 0
    sessions_active: int = 0
    windows_assembled: int = 0
    windows_scored: int = 0
    windows_abstained: int = 0
    windows_shed_queue: int = 0
    windows_shed_session: int = 0
    incomplete_windows: int = 0
    duplicate_packets: int = 0
    corrupted_packets: int = 0
    episodes_closed: int = 0
    batches: int = 0
    batched_windows: int = 0
    #: Windows abstained because no scoring backend could score them
    #: (supervision exhausted its whole ladder).  A subset of
    #: ``windows_abstained`` -- they are real verdicts, so conservation
    #: still closes.
    windows_unscorable: int = 0

    @property
    def windows_shed(self) -> int:
        return self.windows_shed_queue + self.windows_shed_session

    @property
    def verdicts(self) -> int:
        """Windows that received an explicit outcome (scored or abstain)."""
        return self.windows_scored + self.windows_abstained

    @property
    def mean_batch_size(self) -> float:
        return self.batched_windows / self.batches if self.batches else 0.0


def _add_session(stats: GatewayStats, session: WearerSession) -> None:
    """Add one session's own counts to ``stats``."""
    stats.windows_assembled += session.windows_assembled
    stats.windows_scored += session.windows_scored
    stats.windows_abstained += session.windows_abstained
    stats.incomplete_windows += session.assembler.incomplete_windows
    stats.duplicate_packets += session.assembler.duplicate_packets
    stats.corrupted_packets += session.assembler.corrupted_packets
    stats.episodes_closed += len(session.episodes)


class IngestionGateway:
    """Micro-batching ingestion front-end over one or more detector tiers.

    Parameters
    ----------
    detector:
        The fitted primary detector every new session starts on.
    quality_gate:
        Optional SQI gate, shared by all sessions (assessment is
        stateless); gated windows become abstain verdicts.  Without a
        gate only windows holding a NaN or infinite sample abstain.
    fallbacks:
        Fitted detectors for lighter tiers, keyed by version.
    degradation:
        Optional *template* tier controller; each session gets its own
        :meth:`~repro.adaptive.degradation.DegradationController.clone`
        so one wearer's artifacts never degrade another wearer's tier.
    batch_size:
        The most windows one micro-batch may hold.  The batcher never
        waits for a batch to fill: whenever the scorer is free it takes
        every queued window, up to ``batch_size``, so batches stay small
        at low load and grow toward ``batch_size`` under overload.
    queue_windows / max_inflight_per_session:
        The backpressure bounds (see the module docstring).
    on_verdict:
        Optional callback invoked with every :class:`SessionVerdict`
        (the sink-integration hook; exceptions propagate).  Each
        verdict's ``latency_s`` is its enqueue-to-decision time; the
        load generator measures end-to-end latency from the due time.
    backend:
        Where micro-batches are scored.  ``None`` (default) builds an
        :class:`~repro.gateway.supervisor.InProcessBackend` over this
        gateway's detectors -- the historical, bit-identical behaviour.
        Pass a :class:`~repro.gateway.supervisor
        .SupervisedScoringBackend` for crash-isolated scoring; the
        gateway owns whichever backend it ends up with (``shutdown``
        closes it).  If the backend raises
        :class:`~repro.gateway.supervisor.ScoringUnavailable` for a
        batch, its windows become abstain verdicts (counted in
        ``windows_unscorable``) so conservation closes under any fault
        schedule.
    """

    def __init__(
        self,
        detector: SIFTDetector,
        quality_gate: SignalQualityIndex | None = None,
        fallbacks: Mapping[DetectorVersion, SIFTDetector] | None = None,
        degradation: DegradationController | None = None,
        batch_size: int = 256,
        queue_windows: int = 4096,
        max_inflight_per_session: int = 64,
        on_verdict: Callable[[SessionVerdict], None] | None = None,
        backend: ScoringBackend | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if queue_windows < 1:
            raise ValueError("queue_windows must be >= 1")
        if max_inflight_per_session < 1:
            raise ValueError("max_inflight_per_session must be >= 1")
        if degradation is not None and quality_gate is None:
            raise ValueError("degradation requires a quality_gate")
        self.detector = detector
        self.quality_gate = quality_gate
        self.fallbacks = dict(fallbacks) if fallbacks else {}
        self.degradation = degradation
        self.batch_size = int(batch_size)
        self.max_inflight_per_session = int(max_inflight_per_session)
        self.on_verdict = on_verdict
        # Detectors by tier key (version string): the vocabulary every
        # ScoringBackend speaks.  All fitted instances the sessions can
        # select come from here, so id() -> key lookup is total.
        self._detectors_by_key: dict[str, SIFTDetector] = {
            detector.version.value: detector
        }
        for version, fallback in self.fallbacks.items():
            self._detectors_by_key[version.value] = fallback
        self._key_of: dict[int, str] = {
            id(det): key for key, det in self._detectors_by_key.items()
        }
        self.backend: ScoringBackend = (
            backend if backend is not None else InProcessBackend(self._detectors_by_key)
        )
        self._stats = GatewayStats()
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_windows)
        self._sessions: dict[str, WearerSession] = {}
        # Detached by end_session but still awaiting queued windows: out
        # of _sessions, not yet finalized into the record.
        self._ending: set[WearerSession] = set()
        self._batcher_task: asyncio.Task | None = None
        self._closing = False
        self._inflight_total = 0
        # Set exactly when no window is queued or being scored.
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start the scoring backend and spawn the batcher task."""
        if self._batcher_task is not None:
            raise RuntimeError("gateway already started")
        self.backend.start()
        self._batcher_task = asyncio.get_running_loop().create_task(
            self._batch_loop()
        )

    async def __aenter__(self) -> "IngestionGateway":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    async def drain(self) -> None:
        """Wait until every queued window has been scored."""
        await self._idle.wait()

    async def shutdown(self) -> None:
        """Stop intake, score everything queued, close every session.

        Idempotent; after it returns ``active_sessions`` is zero and the
        batcher task has exited.  A SIGINT-driven shutdown goes through
        here, so an interrupted service still flushes its accounting.
        """
        if self._batcher_task is None:
            raise RuntimeError("gateway was never started")
        if not self._closing:
            self._closing = True
            await self._queue.put(_STOP)
        await self._batcher_task
        for wearer_id in list(self._sessions):
            self.end_session(wearer_id)
        self.backend.close()

    async def abort(self) -> None:
        """Simulate a crash: stop dead, *without* draining or finalizing.

        The chaos harness's in-process stand-in for a killed gateway
        process: queued windows are discarded unscored, sessions are
        left as they are (not finalized -- a real crash would not have
        flushed them either), and only the backend is reaped so no child
        process leaks.  A gateway restarted from the last snapshot must
        then resume exactly; anything this abort loses outside the
        restart window is a bug the chaos tests would catch.
        """
        if self._batcher_task is None:
            raise RuntimeError("gateway was never started")
        self._closing = True
        self._batcher_task.cancel()
        try:
            await self._batcher_task
        except asyncio.CancelledError:
            pass
        self.backend.close()

    # -- sessions -------------------------------------------------------

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    def session(self, wearer_id: str) -> WearerSession:
        """The wearer's live session, created on first contact."""
        session = self._sessions.get(wearer_id)
        if session is None:
            session = WearerSession(
                wearer_id,
                self.detector,
                quality_gate=self.quality_gate,
                fallbacks=self.fallbacks,
                degradation=(
                    self.degradation.clone()
                    if self.degradation is not None
                    else None
                ),
            )
            self._sessions[wearer_id] = session
            self._stats.sessions_started += 1
        return session

    def end_session(self, wearer_id: str) -> WearerSession:
        """Detach a wearer; its state is finalized once its queue drains.

        Pending halves are flushed into the incomplete count and the
        debouncer's trailing episode is closed.  If windows of this
        wearer are still awaiting scoring, finalization happens right
        after the batcher scores the last of them -- never before, so
        the episode accounting stays in arrival order.
        """
        session = self._sessions.pop(wearer_id)
        session.ending = True
        if session.inflight == 0:
            self._finalize(session)
        else:
            self._ending.add(session)
        return session

    def _finalize(self, session: WearerSession) -> None:
        self._ending.discard(session)
        session.finalize()
        _add_session(self._stats, session)

    # -- intake ---------------------------------------------------------

    def submit(
        self, wearer_id: str, delivered: DeliveredPacket | None
    ) -> bool:
        """Accept one channel delivery for a wearer.

        Synchronous fast path (call it from any task on the gateway's
        loop); verdicts surface through ``on_verdict`` once the batcher
        scores the window.  Returns ``False`` iff an assembled window
        was shed by backpressure -- every other disposition (absorbed
        half, duplicate, corrupt, enqueued) returns ``True``, with the
        session counters carrying the detail.
        """
        if self._closing:
            raise RuntimeError("gateway is shutting down")
        if delivered is None:
            return True
        session = self.session(wearer_id)
        completed = session.assemble(delivered)
        if completed is None:
            return True
        sequence, time_s, window = completed
        report = session.assess(window)
        if report is not None and not report.usable:
            item = _PendingWindow(
                session=session,
                sequence=sequence,
                time_s=time_s,
                window=window,
                detector=None,
                sqi=report.sqi,
                enqueued_at=time.perf_counter(),
            )
        else:
            item = _PendingWindow(
                session=session,
                sequence=sequence,
                time_s=time_s,
                window=window,
                detector=session.active_detector(),
                sqi=None if report is None else report.sqi,
                enqueued_at=time.perf_counter(),
            )
        # Backpressure: per-wearer bound first (a slow wearer sheds only
        # itself), then the shared queue bound.
        if session.inflight >= self.max_inflight_per_session:
            session.windows_shed += 1
            self._stats.windows_shed_session += 1
            return False
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            session.windows_shed += 1
            self._stats.windows_shed_queue += 1
            return False
        session.inflight += 1
        self._inflight_total += 1
        self._idle.clear()
        return True

    # -- the batcher ----------------------------------------------------

    async def _batch_loop(self) -> None:
        stop = False
        while not stop:
            item = await self._queue.get()
            if item is _STOP:
                break
            # Batch whatever is already queued and score it now: windows
            # that arrive while this batch scores form the next one.
            batch = [item]
            while len(batch) < self.batch_size and not self._queue.empty():
                nxt = self._queue.get_nowait()
                if nxt is _STOP:
                    stop = True
                    break
                batch.append(nxt)
            # Scoring is CPU/pipe work and must not hold the event loop
            # (ASYNC001): compute off-loop, then apply the verdicts on
            # the loop.  The single batcher task awaits each batch in
            # turn, so batches still retire strictly in FIFO order and
            # the bit-identity contract is untouched.
            scores, unscorable = await asyncio.to_thread(
                self._compute_scores, batch
            )
            self._apply_batch(batch, scores, unscorable)

    def _compute_scores(
        self, batch: list[_PendingWindow]
    ) -> tuple[dict[int, float], set[int]]:
        """Score one micro-batch (runs on a worker thread, loop-free).

        Windows are grouped by the tier key their session's detector
        selected; each group is one :meth:`ScoringBackend.score` call
        (the in-process backend makes that exactly the batched
        ``decision_values``).  Touches no session or gateway state --
        all bookkeeping, counters included, happens loop-side in
        :meth:`_apply_batch`, so :meth:`stats` never reads a record a
        worker thread is writing.  A group whose
        backend exhausts the whole supervision ladder
        (:class:`ScoringUnavailable`) is marked unscorable so the loop
        side abstains window by window: time advances, no vote is cast,
        conservation closes.
        """
        groups: dict[str, list[_PendingWindow]] = {}
        for item in batch:
            if item.detector is None:
                continue
            groups.setdefault(self._key_of[id(item.detector)], []).append(item)
        scores: dict[int, float] = {}
        unscorable: set[int] = set()
        for key, items in groups.items():
            try:
                values = self.backend.score(key, [it.window for it in items])
            except ScoringUnavailable:
                for it in items:
                    unscorable.add(id(it))
                continue
            for it, value in zip(items, values):
                scores[id(it)] = float(value)
        return scores, unscorable

    def _apply_batch(
        self,
        batch: list[_PendingWindow],
        scores: dict[int, float],
        unscorable: set[int],
    ) -> None:
        """Fan one scored micro-batch out to its sessions (loop-side).

        Verdicts are recorded in *batch order* -- the queue is FIFO, so
        this preserves every session's arrival order even when its
        windows landed in different tier groups.
        """
        decided_at = time.perf_counter()
        for item in batch:
            session = item.session
            session.inflight -= 1
            self._inflight_total -= 1
            latency_s = decided_at - item.enqueued_at
            if item.detector is None or id(item) in unscorable:
                verdict = session.record_abstain(
                    item.sequence, item.time_s, item.sqi, latency_s
                )
            else:
                verdict = session.record_score(
                    item.sequence,
                    item.time_s,
                    scores[id(item)],
                    item.detector.version,
                    item.sqi,
                    latency_s,
                )
            if session.ending and session.inflight == 0:
                self._finalize(session)
            if self.on_verdict is not None:
                self.on_verdict(verdict)
        self._stats.batches += 1
        self._stats.batched_windows += len(batch)
        self._stats.windows_unscorable += len(unscorable)
        if self._inflight_total == 0:
            self._idle.set()

    # -- snapshot/restore -----------------------------------------------

    async def snapshot(self, store: SessionSnapshotStore) -> int:
        """Persist a crash-consistent epoch of every live session.

        Quiescent by construction: the queue is drained first, so no
        window is in flight and the persisted debouncer state matches
        the verdicts already emitted exactly.  Returns the epoch number.
        Intake stays open -- callers snapshot on a cadence while the
        fleet streams.
        """
        await self.drain()
        sessions = [
            session.export_state() for session in self._sessions.values()
        ]
        # write_epoch commits with flush+fsync -- storage-speed work that
        # must not stall every wearer's verdict stream (ASYNC001).  State
        # is exported above, on the loop (the record as a copy: intake
        # stays open), so the epoch is still the quiescent post-drain
        # picture; only the serialization and the durable write happen
        # off-loop.
        return await asyncio.to_thread(
            store.write_epoch, dataclasses.replace(self._stats), sessions
        )

    def restore_sessions(self, store: SessionSnapshotStore) -> dict[str, int]:
        """Rebuild every snapshotted session before serving resumes.

        Call on a *freshly constructed* gateway (same detectors and
        knobs as the one that crashed), before :meth:`start`.  Returns
        each wearer's resume point -- the sequence a sender should
        replay from (exclusive).  This is the high-water mark, lowered
        to just below the oldest half-assembled pending window: a
        pending window's missing half was never delivered, so replaying
        only above the high-water mark would strand it until it expired
        as incomplete.  Replayed halves of a pending window are absorbed
        (the slot already holds the other channel), and anything already
        resolved is rejected by the restored dedup ring rather than
        re-verdicted.  Restoring from an empty or never-committed store
        is a no-op (cold start).
        """
        if self._batcher_task is not None:
            raise RuntimeError("restore must happen before the gateway starts")
        if self._sessions:
            raise RuntimeError("restore requires a fresh gateway (no sessions)")
        loaded = store.load()
        if loaded is None:
            return {}
        _, record, session_states = loaded
        resume_points: dict[str, int] = {}
        for state in session_states:
            session = self.session(state.wearer_id)
            session.restore_state(state)
            resume = session.assembler.highest_sequence
            pending_floor = session.assembler.lowest_pending_sequence
            if pending_floor is not None:
                resume = min(resume, pending_floor - 1)
            resume_points[session.wearer_id] = resume
        # Last: rebuilding the sessions above counted them as started.
        self._stats = record
        return resume_points

    # -- accounting -----------------------------------------------------

    def stats(self) -> GatewayStats:
        """Aggregate counters over live, ending and finalized sessions."""
        stats = dataclasses.replace(self._stats, sessions_active=self.active_sessions)
        for session in (*self._sessions.values(), *self._ending):
            _add_session(stats, session)
        return stats
