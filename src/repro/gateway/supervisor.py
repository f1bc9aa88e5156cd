"""Crash-isolated scoring behind the gateway: the supervision layer.

PR 7's gateway scored micro-batches in-process: one wedged or crashing
``decision_values`` call -- a native BLAS fault, an OOM kill, a poisoned
batch -- takes every wearer's verdict stream down with it.  This module
moves scoring behind a :class:`ScoringBackend` interface and supplies
two implementations:

* :class:`InProcessBackend` -- the PR 7 behaviour, bit-identical and
  zero-overhead; the default, and the *degraded* backend the supervisor
  falls back to when the isolated scorer is unhealthy.
* :class:`SupervisedScoringBackend` -- scoring in a child process,
  watched like a supervision tree watches a worker:

  - a **heartbeat watchdog**: while it scores a batch the child beats
    every ``heartbeat_interval_s`` (an idle child is silent); a silent
    batch is declared *stalled* after ``heartbeat_timeout_s`` even if
    the pipe is technically open (a GIL-holding native spin never
    answers, but it also never beats);
  - a **per-batch timeout** (``batch_timeout_s``): a batch that beats but
    never finishes is declared *timed out*;
  - **bounded retry with exponential backoff**: every failure kills
    and restarts the child, sleeping ``backoff_base_s`` doubled per
    attempt (capped at :data:`BACKOFF_CAP_S`) before the respawn;
  - a **circuit breaker**: ``breaker_threshold`` consecutive batch
    failures trip it open; while open, batches route straight to the
    degraded in-process backend for ``breaker_cooldown_batches`` batches
    (counted, not timed -- deterministic under test), then a half-open
    probe decides between closing it and re-opening.

The backend keeps one live :class:`SupervisorStats` record and counts
every retried, degraded and unscorable batch in it.  A batch the
degraded leg cannot score either raises :class:`ScoringUnavailable`
-- the gateway converts those windows to abstain verdicts, so the
conservation invariant ``verdicts + shed + incomplete + vanished ==
sent`` closes under *any* fault schedule.

Nothing is pickled per batch.  A request carries each window's raw
sample and peak buffers behind a small metadata header
(:func:`_encode_windows`); the child scores ``np.frombuffer`` views of
them, and the reply carries the decision values as raw ``float64``
bytes.

Determinism: the same fitted detectors produce bit-identical decision
values in the child and in the parent (same arrays, same BLAS), and raw
buffers cross the pipe exactly -- with zero injected faults the
supervised gateway's verdict stream is bit-identical to the in-process
one.  Fault injection for the chaos harness happens
*child-side* via a ``fault_plan`` (see :mod:`repro.faults.runtime`) keyed
by a global request ordinal, so fault schedules are reproducible and
retries (fresh ordinals) are not re-poisoned unless the plan says so.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import selectors
import struct
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import Connection
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.detector import SIFTDetector
from repro.signals.dataset import SignalWindow

__all__ = [
    "BACKOFF_CAP_S",
    "InProcessBackend",
    "ScorerFault",
    "ScoringBackend",
    "ScoringUnavailable",
    "SupervisedScoringBackend",
    "SupervisorStats",
]


#: Longest sleep before a child respawn: the backoff doubles
#: ``backoff_base_s`` per attempt up to this.
BACKOFF_CAP_S = 2.0

#: The :class:`SupervisorStats` counter each detected fault kind moves.
_FAULT_COUNTER = {
    "crash": "crashes",
    "stall": "stalls",
    "timeout": "timeouts",
    "poison": "poisons",
}


class ScoringUnavailable(RuntimeError):
    """No backend could score the batch; the caller must abstain.

    Raised only after the whole escalation ladder -- retries, restarts,
    the degraded in-process leg -- has failed, so every window in the
    batch still gets an explicit (abstain) verdict and conservation
    closes.
    """


@runtime_checkable
class ScoringBackend(Protocol):
    """Where the gateway's micro-batches get their decision values.

    ``key`` identifies the fitted detector tier (its version string);
    the backend owns the keyed detectors.  ``score`` must return one
    ``float64`` value per window, bit-identical to
    :meth:`~repro.core.detector.SIFTDetector.decision_values` on the
    same detector -- backends differ in *where* scoring runs, never in
    what it computes.
    """

    def start(self) -> None: ...

    def score(self, key: str, windows: Sequence[SignalWindow]) -> np.ndarray: ...

    def close(self) -> None: ...


class InProcessBackend:
    """Score on the caller's thread -- PR 7's behaviour, and the degraded
    fallback the supervisor trips to when the isolated scorer is sick."""

    def __init__(self, detectors: Mapping[str, SIFTDetector]) -> None:
        if not detectors:
            raise ValueError("need at least one detector")
        self.detectors = dict(detectors)

    def start(self) -> None:
        return None

    def score(self, key: str, windows: Sequence[SignalWindow]) -> np.ndarray:
        # A detector error is this batch's, not the gateway's: surface it
        # as the one exception the gateway abstains on.
        try:
            return self.detectors[key].decision_values(windows)
        except Exception as exc:
            raise ScoringUnavailable(f"in-process scoring failed: {exc!r}") from exc

    def close(self) -> None:
        return None


@dataclass
class SupervisorStats:
    """Counters of everything the supervision layer did.

    The backend's own live record; :meth:`SupervisedScoringBackend
    .stats` hands out a copy.  ``crashes``/``stalls``/``timeouts``/
    ``poisons`` classify detected faults by signal (process death,
    heartbeat silence, batch deadline, child-reported exception).
    ``retries`` counts re-submissions, ``restarts`` child respawns,
    ``breaker_trips`` closed->open transitions.  Every batch ends in
    exactly one of three ways: scored in the child (``scored_isolated``
    counts its windows), scored by the degraded in-process leg
    (``batches_degraded``/``windows_degraded``), or by nothing
    (``batches_unscorable``/``windows_unscorable``, surfaced to the
    gateway as abstains).  ``recovery_s_total`` sums kill+respawn time
    per restart (perf_counter-based, the deliberate backoff sleep
    excluded).
    """

    requests: int = 0
    scored_isolated: int = 0
    crashes: int = 0
    stalls: int = 0
    timeouts: int = 0
    poisons: int = 0
    retries: int = 0
    restarts: int = 0
    breaker_trips: int = 0
    breaker_state: str = "closed"
    batches_degraded: int = 0
    windows_degraded: int = 0
    batches_unscorable: int = 0
    windows_unscorable: int = 0
    recovery_s_total: float = 0.0

    @property
    def faults(self) -> int:
        return self.crashes + self.stalls + self.timeouts + self.poisons

    @property
    def mean_recovery_s(self) -> float:
        return self.recovery_s_total / self.restarts if self.restarts else 0.0


class ScorerFault(RuntimeError):
    """One failed scoring attempt against the child (internal).

    ``kind`` is the detection signal: ``"crash"`` (process died /
    pipe closed), ``"stall"`` (heartbeat silence), ``"timeout"`` (batch
    deadline), ``"poison"`` (child-reported exception).
    """

    def __init__(self, kind: str, detail: str) -> None:
        if kind not in _FAULT_COUNTER:
            raise ValueError(f"unknown fault kind: {kind!r}")
        super().__init__(f"[{kind}] {detail}")
        self.kind = kind
        self.detail = detail


# -- the wire format ----------------------------------------------------

#: Every message starts with this header: a four-byte kind, an item
#: count and the request ordinal.  It is 16 bytes, so a payload that
#: follows it starts 8-byte aligned.
_HEADER = struct.Struct("<4sIQ")
#: One window's metadata in a score request: the dtype strings of its
#: ECG, ABP, R-peak and systolic-peak arrays, ``sample_rate``, the
#: sample count, the two peak counts, the UTF-8 length of
#: ``subject_id`` and ``altered`` (-1 None, 0 False, 1 True).
_WINDOW = struct.Struct("<4s4s4s4sdIIIIb")
_KEY_LENGTH = struct.Struct("<I")
_SCORE, _OK, _ERROR, _BEAT, _STOP = b"scor", b"ok  ", b"err ", b"beat", b"stop"
_ALTERED_CODE = {None: -1, False: 0, True: 1}
_ALTERED = {-1: None, 0: False, 1: True}


def _padding(size: int) -> bytes:
    """Zero bytes that bring ``size`` up to a multiple of 8."""
    return bytes(-size % 8)


@functools.lru_cache(maxsize=None)
def _dtype(code: bytes) -> np.dtype:
    return np.dtype(code.rstrip(b"\0").decode("ascii"))


def _encode_windows(ordinal: int, key: str, windows: Sequence[SignalWindow]) -> bytes:
    """The score request for ``windows``, one ``send_bytes`` message.

    After the header come the length of the tier key, each window's
    :data:`_WINDOW` metadata, the key and each ``subject_id``, then
    every window's raw ECG, ABP, R-peak and systolic-peak buffers, each
    padded to 8 bytes so the receiver's ``np.frombuffer`` views are
    aligned.
    """
    key_bytes = key.encode("utf-8")
    metadata = [
        _HEADER.pack(_SCORE, len(windows), ordinal),
        _KEY_LENGTH.pack(len(key_bytes)),
    ]
    texts = [key_bytes]
    buffers: list[np.ndarray | bytes] = []
    for window in windows:
        arrays = [
            np.ascontiguousarray(a)
            for a in (window.ecg, window.abp, window.r_peaks, window.systolic_peaks)
        ]
        codes = [a.dtype.str.encode("ascii") for a in arrays]
        if max(map(len, codes)) > 4:
            raise ValueError(f"no raw wire form for window dtypes {codes}")
        subject = window.subject_id.encode("utf-8")
        metadata.append(
            _WINDOW.pack(
                *codes,
                window.sample_rate,
                arrays[0].size,
                arrays[2].size,
                arrays[3].size,
                len(subject),
                _ALTERED_CODE[window.altered],
            )
        )
        texts.append(subject)
        for array in arrays:
            buffers += (array, _padding(array.nbytes))
    size = sum(map(len, metadata)) + sum(map(len, texts))
    return b"".join([*metadata, *texts, _padding(size), *buffers])


def _decode_windows(data: bytes) -> tuple[int, str, list[SignalWindow]]:
    """``(ordinal, key, windows)`` of one :func:`_encode_windows` request.

    The arrays are read-only ``np.frombuffer`` views of ``data``, with
    the dtypes, lengths and values the sender's windows had.
    """
    _, count, ordinal = _HEADER.unpack_from(data)
    (key_length,) = _KEY_LENGTH.unpack_from(data, _HEADER.size)
    text = _HEADER.size + _KEY_LENGTH.size
    metadata = [_WINDOW.unpack_from(data, text + i * _WINDOW.size) for i in range(count)]
    text += count * _WINDOW.size
    key = data[text:text + key_length].decode("utf-8")
    text += key_length
    offset = text + sum(meta[8] for meta in metadata)
    offset += -offset % 8
    windows = []
    for ecg, abp, r, sys, rate, n, n_r, n_sys, subject_length, altered in metadata:
        subject = data[text:text + subject_length].decode("utf-8")
        text += subject_length
        arrays = []
        for code, length in ((ecg, n), (abp, n), (r, n_r), (sys, n_sys)):
            dtype = _dtype(code)
            arrays.append(np.frombuffer(data, dtype, length, offset))
            offset += length * dtype.itemsize
            offset += -offset % 8
        windows.append(
            SignalWindow(
                *arrays, sample_rate=rate, subject_id=subject, altered=_ALTERED[altered]
            )
        )
    return ordinal, key, windows


# -- the child ----------------------------------------------------------


class _Heartbeat:
    """Child-side beater: beats every interval while a batch is scored.

    The scoring loop sets ``busy`` when a request arrives and clears it
    in :meth:`reply`, under the send lock, so no beat follows a reply
    and an idle child writes nothing to the pipe.  A GIL-holding spin
    still silences the beats: the beater never gets to run.
    """

    def __init__(self, conn: Connection, interval_s: float) -> None:
        self.conn = conn
        self.interval_s = interval_s
        self.busy = False
        self._send_lock = threading.Lock()

    def run(self) -> None:
        beat = _HEADER.pack(_BEAT, 0, 0)
        while True:
            time.sleep(self.interval_s)
            if not self.busy:
                continue
            try:
                with self._send_lock:
                    if self.busy:
                        self.conn.send_bytes(beat)
            except (BrokenPipeError, OSError):
                return

    def reply(self, message: bytes) -> None:
        with self._send_lock:
            self.busy = False
            self.conn.send_bytes(message)


def _scorer_child_main(
    conn: Connection,
    detectors: Mapping[str, SIFTDetector],
    heartbeat_interval_s: float,
    fault_plan: object | None,
) -> None:
    """Entry point of the isolated scorer process.

    Protocol: every message is one ``send_bytes`` buffer that starts
    with a :data:`_HEADER`.  Parent -> child: a score request
    (:func:`_encode_windows`) or ``stop``.  Child -> parent: ``beat``
    while a request is being scored, ``ok`` with the decision values as
    raw ``float64`` bytes, or ``err`` with a UTF-8 message for a batch
    that raised (poison).  ``fault_plan`` is consulted per request
    ordinal to act out the chaos harness's schedule *inside* the child
    -- where real faults would occur.
    """
    heartbeat = _Heartbeat(conn, heartbeat_interval_s)
    threading.Thread(target=heartbeat.run, daemon=True).start()
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        message_kind, _, ordinal = _HEADER.unpack_from(data)
        if message_kind == _STOP:
            return
        heartbeat.busy = True
        action = None
        if fault_plan is not None:
            action = fault_plan.action_for(ordinal)  # type: ignore[attr-defined]
        if action is not None:
            kind, delay_s = action
            if kind == "crash":
                os._exit(13)
            if kind == "stall":
                # A wedged process neither beats nor answers; park until
                # the parent gives up and kills us.
                heartbeat.busy = False
                time.sleep(3600.0)
            if kind == "slow":
                time.sleep(delay_s)
            if kind == "poison":
                heartbeat.reply(
                    _HEADER.pack(_ERROR, 0, ordinal) + b"injected poison batch"
                )
                continue
        try:
            _, key, windows = _decode_windows(data)
            values = np.asarray(detectors[key].decision_values(windows), np.float64)
        except Exception as exc:  # noqa: BLE001 -- reported, not raised
            detail = f"{type(exc).__name__}: {exc}".encode("utf-8")
            heartbeat.reply(_HEADER.pack(_ERROR, 0, ordinal) + detail)
            continue
        heartbeat.reply(_HEADER.pack(_OK, values.size, ordinal) + values.tobytes())


# -- the parent ---------------------------------------------------------


class SupervisedScoringBackend:
    """Crash-isolated scoring with watchdog, retry, and circuit breaker.

    When isolation is unhealthy, batches route to the *degraded* leg: an
    :class:`InProcessBackend` over the same detectors, so degraded
    scores stay bit-identical and only the isolation property is lost.

    Parameters
    ----------
    detectors:
        Fitted detectors by key (version string).  They are shipped to
        the child once at start (fork inheritance or pickle) -- batches
        only carry windows, never models.
    heartbeat_interval_s / heartbeat_timeout_s:
        Child beat period and the silence after which it is declared
        stalled.
    batch_timeout_s:
        Deadline for any single scoring attempt.
    max_retries:
        Re-submissions allowed per batch after a failed attempt; each
        retry restarts the child first.
    backoff_base_s:
        Sleep before the first retry's respawn; it doubles per attempt,
        up to :data:`BACKOFF_CAP_S`.
    breaker_threshold:
        Consecutive *batch* failures (after retries) that trip the
        breaker open.
    breaker_cooldown_batches:
        How many batches route to the degraded backend before a
        half-open probe; counted in batches, not seconds, so fault
        schedules replay deterministically.
    fault_plan:
        Chaos-harness hook, executed child-side (see
        :mod:`repro.faults.runtime`); ``None`` in production.
    """

    def __init__(
        self,
        detectors: Mapping[str, SIFTDetector],
        heartbeat_interval_s: float = 0.02,
        heartbeat_timeout_s: float = 1.0,
        batch_timeout_s: float = 10.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        breaker_threshold: int = 3,
        breaker_cooldown_batches: int = 8,
        fault_plan: object | None = None,
    ) -> None:
        if not detectors:
            raise ValueError("need at least one detector")
        if heartbeat_interval_s <= 0 or heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat intervals must be positive")
        if heartbeat_timeout_s <= heartbeat_interval_s:
            raise ValueError("heartbeat_timeout_s must exceed the interval")
        if batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown_batches < 1:
            raise ValueError("breaker_cooldown_batches must be >= 1")
        self.detectors = dict(detectors)
        self.degraded = InProcessBackend(self.detectors)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.batch_timeout_s = float(batch_timeout_s)
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_batches = int(breaker_cooldown_batches)
        self.fault_plan = fault_plan
        self._ctx = get_context("fork" if "fork" in get_all_start_methods() else "spawn")
        self._process = None
        self._conn: Connection | None = None
        # Waits for the child's replies; registered once per child.
        self._selector: selectors.BaseSelector | None = None
        self._started = False
        # The breaker state machine ("closed" | "open" | "half-open")
        # lives in the stats record's ``breaker_state``.
        self._stats = SupervisorStats()
        self._cooldown_left = 0
        self._consecutive_failures = 0
        self.requests_sent = 0  # global request ordinal (fault-plan key)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn the scorer child (idempotent)."""
        if not self._started:
            self._started = True
            self._spawn()

    def _spawn(self) -> None:
        # Refuse to respawn once closed: scoring runs on the gateway's
        # scorer thread, so a restart attempt can race close()/abort() --
        # a child spawned after close() would leak.  The thread's next
        # _request then fails as a crash and the ladder falls through to
        # the degraded leg instead.
        if not self._started:
            return
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_scorer_child_main,
            args=(
                child_conn,
                self.detectors,
                self.heartbeat_interval_s,
                self.fault_plan,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        selector = selectors.DefaultSelector()
        selector.register(parent_conn, selectors.EVENT_READ)
        self._process = process
        self._conn = parent_conn
        self._selector = selector

    def _kill_child(self) -> None:
        process, self._process = self._process, None
        conn, self._conn = self._conn, None
        selector, self._selector = self._selector, None
        if selector is not None:
            selector.close()
        if conn is not None:
            conn.close()
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join(timeout=5.0)
            process.close()

    def _restart(self, attempt: int | None) -> None:
        """Kill + backoff + respawn; the restart-with-backoff leg.

        Every restart records one recovery sample: the kill plus respawn
        time, *excluding* the deliberate backoff sleep in between --
        that sleep is retry policy, not recovery work, and folding it in
        would report the backoff schedule as recovery latency.  Pass
        ``attempt=None`` to skip the backoff entirely (the final-attempt
        respawn, where the breaker/degraded leg takes over immediately).
        """
        kill_began = time.perf_counter()
        self._kill_child()
        kill_s = time.perf_counter() - kill_began
        if attempt is not None:
            time.sleep(min(BACKOFF_CAP_S, self.backoff_base_s * 2 ** (attempt - 1)))
        spawn_began = time.perf_counter()
        self._spawn()
        spawn_s = time.perf_counter() - spawn_began
        self._stats.restarts += 1
        self._stats.recovery_s_total += kill_s + spawn_s

    def close(self) -> None:
        """Stop the child (politely, then by force)."""
        conn = self._conn
        if conn is not None:
            try:
                conn.send_bytes(_HEADER.pack(_STOP, 0, 0))
            except (BrokenPipeError, OSError):
                pass
        self._kill_child()
        self._started = False

    @property
    def child_pid(self) -> int | None:
        return self._process.pid if self._process is not None else None

    # -- scoring --------------------------------------------------------

    def score(self, key: str, windows: Sequence[SignalWindow]) -> np.ndarray:
        """Score one batch through the supervision ladder.

        closed: try the child (with retries + restarts); on final
        failure count it, maybe trip the breaker, and fall through to
        the degraded backend.  open: route to degraded while the
        cooldown runs.  half-open: one probe batch decides.
        """
        if not self._started:
            raise RuntimeError("backend not started")
        stats = self._stats
        stats.requests += 1
        if stats.breaker_state == "open":
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                return self._score_degraded(windows, key)
            stats.breaker_state = "half-open"
        try:
            values = self._score_isolated(key, windows)
        except ScorerFault:
            self._consecutive_failures += 1
            if stats.breaker_state == "half-open" or (
                stats.breaker_state == "closed"
                and self._consecutive_failures >= self.breaker_threshold
            ):
                self._trip_breaker()
            return self._score_degraded(windows, key)
        self._consecutive_failures = 0
        stats.breaker_state = "closed"
        stats.scored_isolated += len(windows)
        return values

    def _trip_breaker(self) -> None:
        self._stats.breaker_state = "open"
        self._cooldown_left = self.breaker_cooldown_batches
        self._stats.breaker_trips += 1

    def _score_degraded(self, windows: Sequence[SignalWindow], key: str) -> np.ndarray:
        try:
            values = self.degraded.score(key, windows)
        except ScoringUnavailable:
            self._stats.batches_unscorable += 1
            self._stats.windows_unscorable += len(windows)
            raise
        self._stats.batches_degraded += 1
        self._stats.windows_degraded += len(windows)
        return values

    def _score_isolated(
        self, key: str, windows: Sequence[SignalWindow]
    ) -> np.ndarray:
        """One batch against the child, with bounded retry + restart."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._request(key, windows)
            except ScorerFault as fault:
                counter = _FAULT_COUNTER[fault.kind]
                setattr(self._stats, counter, getattr(self._stats, counter) + 1)
                if attempt > self.max_retries:
                    # Final attempt: respawn without backoff so the next
                    # batch finds a live child; report up so the breaker
                    # and degraded leg take over this batch.
                    self._restart(None)
                    raise
                self._stats.retries += 1
                self._restart(attempt)

    def _request(self, key: str, windows: Sequence[SignalWindow]) -> np.ndarray:
        """One send/receive round trip, classifying every failure mode."""
        conn = self._conn
        selector = self._selector
        process = self._process
        if conn is None or selector is None or process is None or not process.is_alive():
            raise ScorerFault("crash", "scorer child is not running")
        self.requests_sent += 1
        ordinal = self.requests_sent
        try:
            conn.send_bytes(_encode_windows(ordinal, key, windows))
        except (BrokenPipeError, OSError) as exc:
            raise ScorerFault("crash", f"send failed: {exc}") from None
        started = time.perf_counter()
        last_beat = started
        while True:
            now = time.perf_counter()
            if now - started > self.batch_timeout_s:
                raise ScorerFault(
                    "timeout",
                    f"batch exceeded {self.batch_timeout_s:.3f} s deadline",
                )
            if now - last_beat > self.heartbeat_timeout_s:
                raise ScorerFault(
                    "stall",
                    f"no heartbeat for {now - last_beat:.3f} s",
                )
            try:
                ready = selector.select(self.heartbeat_interval_s)
            except (OSError, ValueError):  # closed under us by close()
                raise ScorerFault("crash", "pipe closed mid-batch") from None
            if not ready:
                if not process.is_alive():
                    raise ScorerFault("crash", "scorer child died mid-batch")
                continue
            try:
                reply = conn.recv_bytes()
            except (EOFError, OSError):
                raise ScorerFault("crash", "pipe closed mid-batch") from None
            kind, count, got_ordinal = _HEADER.unpack_from(reply)
            if kind == _BEAT:
                last_beat = time.perf_counter()
                continue
            if got_ordinal != ordinal:
                continue  # stale reply from before a restart
            if kind == _ERROR:
                raise ScorerFault("poison", reply[_HEADER.size:].decode("utf-8"))
            return np.frombuffer(reply, np.float64, count, _HEADER.size).copy()

    # -- accounting -----------------------------------------------------

    def stats(self) -> SupervisorStats:
        return dataclasses.replace(self._stats)
