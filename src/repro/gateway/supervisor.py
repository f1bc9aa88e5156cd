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

  - a **heartbeat watchdog**: the child beats every
    ``heartbeat_interval_s``; a silent child is declared *stalled* after
    ``heartbeat_timeout_s`` even if the pipe is technically open (a
    GIL-holding native spin never answers, but it also never beats);
  - a **per-batch timeout** (``batch_timeout_s``): a batch that beats but
    never finishes is declared *timed out*;
  - **bounded retry with jittered exponential backoff**: every failure
    kills and restarts the child, sleeping through the same
    :class:`~repro.core.backoff.JitteredBackoff` helper the hardened
    cohort runner uses, so a fleet of supervisors does not hammer a
    shared failing resource in lockstep;
  - a **circuit breaker**: ``breaker_threshold`` consecutive batch
    failures trip it open; while open, batches route straight to the
    degraded in-process backend for ``breaker_cooldown_batches`` batches
    (counted, not timed -- deterministic under test), then a half-open
    probe decides between closing it and re-opening.

Every shed, retried, and degraded batch is explicitly counted in
:class:`SupervisorStats`, and a batch the supervisor ultimately cannot
score raises :class:`ScoringUnavailable` -- the gateway converts those
windows to abstain verdicts, so the conservation invariant
``verdicts + shed + incomplete + vanished == sent`` closes under *any*
fault schedule.

Determinism: the same fitted detectors produce bit-identical decision
values in the child and in the parent (same arrays, same BLAS), and
pickling ``float64`` results over the pipe is exact -- with zero
injected faults the supervised gateway's verdict stream is bit-identical
to the in-process one.  Fault injection for the chaos harness happens
*child-side* via a ``fault_plan`` (see :mod:`repro.faults.runtime`) keyed
by a global request ordinal, so fault schedules are reproducible and
retries (fresh ordinals) are not re-poisoned unless the plan says so.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.backoff import JitteredBackoff
from repro.core.detector import SIFTDetector
from repro.signals.dataset import SignalWindow

__all__ = [
    "InProcessBackend",
    "ScorerFault",
    "ScoringBackend",
    "ScoringUnavailable",
    "SupervisedScoringBackend",
    "SupervisorStats",
]


class ScoringUnavailable(RuntimeError):
    """No backend could score the batch; the caller must abstain.

    Raised only after the whole escalation ladder -- retries, restarts,
    the degraded backend -- has been exhausted, so every window in the
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


@dataclass(frozen=True)
class SupervisorStats:
    """Counters of everything the supervision layer did.

    ``crashes``/``stalls``/``timeouts``/``poisons`` classify detected
    faults by signal (process death, heartbeat silence, batch deadline,
    child-reported exception).  ``retries`` counts re-submissions,
    ``restarts`` child respawns, ``breaker_trips`` closed->open
    transitions.  ``batches_degraded``/``windows_degraded`` count work
    the degraded backend absorbed; ``batches_unscorable`` /
    ``windows_unscorable`` count work nothing could score (surfaced to
    the gateway as abstains).  ``recovery_s_total`` sums kill+respawn
    time per restart (perf_counter-based, one sample per restart, the
    deliberate backoff sleep excluded) over ``recoveries``.
    """

    requests: int
    scored_isolated: int
    crashes: int
    stalls: int
    timeouts: int
    poisons: int
    retries: int
    restarts: int
    breaker_trips: int
    breaker_state: str
    batches_degraded: int
    windows_degraded: int
    batches_unscorable: int
    windows_unscorable: int
    recoveries: int
    recovery_s_total: float

    @property
    def faults(self) -> int:
        return self.crashes + self.stalls + self.timeouts + self.poisons

    @property
    def mean_recovery_s(self) -> float:
        return self.recovery_s_total / self.recoveries if self.recoveries else 0.0


class ScorerFault(RuntimeError):
    """One failed scoring attempt against the child (internal).

    ``kind`` is the detection signal: ``"crash"`` (process died /
    pipe closed), ``"stall"`` (heartbeat silence), ``"timeout"`` (batch
    deadline), ``"poison"`` (child-reported exception).
    """

    def __init__(self, kind: str, detail: str) -> None:
        if kind not in ("crash", "stall", "timeout", "poison"):
            raise ValueError(f"unknown fault kind: {kind!r}")
        super().__init__(f"[{kind}] {detail}")
        self.kind = kind
        self.detail = detail


# -- the child ----------------------------------------------------------


def _heartbeat_loop(
    conn: Connection,
    send_lock: threading.Lock,
    interval_s: float,
    paused: threading.Event,
) -> None:
    """Child-side daemon: beat until the pipe dies or a stall is staged."""
    while True:
        time.sleep(interval_s)
        if paused.is_set():
            continue
        try:
            with send_lock:
                conn.send(("hb", time.time()))
        except (BrokenPipeError, OSError):
            return


def _scorer_child_main(
    conn: Connection,
    detectors: Mapping[str, SIFTDetector],
    heartbeat_interval_s: float,
    fault_plan: object | None,
) -> None:
    """Entry point of the isolated scorer process.

    Protocol (parent -> child): ``("score", ordinal, key, windows)`` or
    ``("stop",)``.  Child -> parent: ``("hb", wallclock)`` heartbeats,
    ``("ok", ordinal, values)`` results, ``("err", ordinal, message)``
    for batches that raised (poison).  ``fault_plan`` is consulted per
    request ordinal to act out the chaos harness's schedule *inside*
    the child -- where real faults would occur.
    """
    send_lock = threading.Lock()
    stall = threading.Event()
    beater = threading.Thread(
        target=_heartbeat_loop,
        args=(conn, send_lock, heartbeat_interval_s, stall),
        daemon=True,
    )
    beater.start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, ordinal, key, windows = message
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
                stall.set()
                time.sleep(3600.0)
            if kind == "slow":
                time.sleep(delay_s)
            if kind == "poison":
                with send_lock:
                    conn.send(("err", ordinal, "injected poison batch"))
                continue
        try:
            values = detectors[key].decision_values(windows)
        except Exception as exc:  # noqa: BLE001 -- reported, not raised
            with send_lock:
                conn.send(("err", ordinal, f"{type(exc).__name__}: {exc}"))
            continue
        with send_lock:
            conn.send(("ok", ordinal, values))


# -- the parent ---------------------------------------------------------


class SupervisedScoringBackend:
    """Crash-isolated scoring with watchdog, retry, and circuit breaker.

    Parameters
    ----------
    detectors:
        Fitted detectors by key (version string).  They are shipped to
        the child once at start (fork inheritance or pickle) -- batches
        only carry windows, never models.
    degraded:
        The backend batches route to when isolation is unhealthy.  The
        default builds an :class:`InProcessBackend` over the same
        detectors, so degraded scores stay bit-identical and only the
        isolation property is lost.  Pass ``None`` to abstain instead
        (every degraded batch then raises :class:`ScoringUnavailable`).
    heartbeat_interval_s / heartbeat_timeout_s:
        Child beat period and the silence after which it is declared
        stalled.
    batch_timeout_s:
        Deadline for any single scoring attempt.
    max_retries:
        Re-submissions allowed per batch after a failed attempt; each
        retry restarts the child first.
    backoff_base_s / backoff_jitter / backoff_seed:
        The restart backoff (shared :class:`JitteredBackoff` policy).
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
        degraded: ScoringBackend | None | str = "in-process",
        heartbeat_interval_s: float = 0.02,
        heartbeat_timeout_s: float = 1.0,
        batch_timeout_s: float = 10.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        backoff_jitter: float = 0.5,
        backoff_seed: int = 0,
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
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown_batches < 1:
            raise ValueError("breaker_cooldown_batches must be >= 1")
        self.detectors = dict(detectors)
        if degraded == "in-process":
            degraded = InProcessBackend(self.detectors)
        self.degraded = degraded
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.batch_timeout_s = float(batch_timeout_s)
        self.max_retries = int(max_retries)
        self.backoff = JitteredBackoff(
            backoff_base_s,
            cap_s=backoff_cap_s,
            jitter=backoff_jitter,
            seed=backoff_seed,
        )
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_batches = int(breaker_cooldown_batches)
        self.fault_plan = fault_plan
        self._ctx = get_context("fork" if "fork" in _start_methods() else "spawn")
        self._process = None
        self._conn: Connection | None = None
        self._started = False
        # Breaker state machine: "closed" | "open" | "half-open".
        self._breaker = "closed"
        self._cooldown_left = 0
        self._consecutive_failures = 0
        # Counters (see SupervisorStats).
        self.requests_sent = 0  # global request ordinal (fault-plan key)
        self.requests = 0
        self.scored_isolated = 0
        self.crashes = 0
        self.stalls = 0
        self.timeouts = 0
        self.poisons = 0
        self.retries = 0
        self.restarts = 0
        self.breaker_trips = 0
        self.batches_degraded = 0
        self.windows_degraded = 0
        self.batches_unscorable = 0
        self.windows_unscorable = 0
        self.recoveries = 0
        self.recovery_s_total = 0.0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn the scorer child (idempotent)."""
        if not self._started:
            self._started = True
            self._spawn()

    def _spawn(self) -> None:
        # Refuse to respawn once closed: scoring now runs on a worker
        # thread, so a restart attempt can race close()/abort() -- a
        # child spawned after close() would leak.  The thread's next
        # _request then fails as a crash and the ladder falls through to
        # the degraded leg (or ScoringUnavailable) instead.
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
        self._process = process
        self._conn = parent_conn

    def _kill_child(self) -> None:
        process, self._process = self._process, None
        conn, self._conn = self._conn, None
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
            self.backoff.sleep(attempt)
        spawn_began = time.perf_counter()
        self._spawn()
        spawn_s = time.perf_counter() - spawn_began
        self.restarts += 1
        self.recoveries += 1
        self.recovery_s_total += kill_s + spawn_s

    def close(self) -> None:
        """Stop the child (politely, then by force) and the degraded leg."""
        conn = self._conn
        if conn is not None:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self._kill_child()
        self._started = False
        if self.degraded is not None:
            self.degraded.close()

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
        self.requests += 1
        if self._breaker == "open":
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                return self._score_degraded(windows, key)
            self._breaker = "half-open"
        try:
            values = self._score_isolated(key, windows)
        except ScorerFault:
            self._consecutive_failures += 1
            if self._breaker == "half-open" or (
                self._breaker == "closed"
                and self._consecutive_failures >= self.breaker_threshold
            ):
                self._trip_breaker()
            return self._score_degraded(windows, key)
        self._consecutive_failures = 0
        if self._breaker == "half-open":
            self._breaker = "closed"
        self.scored_isolated += len(windows)
        return values

    def _trip_breaker(self) -> None:
        self._breaker = "open"
        self._cooldown_left = self.breaker_cooldown_batches
        self.breaker_trips += 1

    def _score_degraded(self, windows: Sequence[SignalWindow], key: str) -> np.ndarray:
        if self.degraded is None:
            self.batches_unscorable += 1
            self.windows_unscorable += len(windows)
            raise ScoringUnavailable(
                f"isolated scorer unhealthy and no degraded backend "
                f"({len(windows)} windows abstain)"
            )
        self.batches_degraded += 1
        self.windows_degraded += len(windows)
        return self.degraded.score(key, windows)

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
                self._count_fault(fault)
                if attempt > self.max_retries:
                    # Final attempt: respawn without backoff so the next
                    # batch finds a live child; report up so the breaker
                    # and degraded leg take over this batch.
                    self._restart(None)
                    raise
                self.retries += 1
                self._restart(attempt)

    def _count_fault(self, fault: ScorerFault) -> None:
        if fault.kind == "crash":
            self.crashes += 1
        elif fault.kind == "stall":
            self.stalls += 1
        elif fault.kind == "timeout":
            self.timeouts += 1
        else:
            self.poisons += 1

    def _request(self, key: str, windows: Sequence[SignalWindow]) -> np.ndarray:
        """One send/receive round trip, classifying every failure mode."""
        conn = self._conn
        process = self._process
        if conn is None or process is None or not process.is_alive():
            raise ScorerFault("crash", "scorer child is not running")
        self.requests_sent += 1
        ordinal = self.requests_sent
        try:
            conn.send(("score", ordinal, key, list(windows)))
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
            if not conn.poll(self.heartbeat_interval_s):
                if not process.is_alive():
                    raise ScorerFault("crash", "scorer child died mid-batch")
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                raise ScorerFault("crash", "pipe closed mid-batch") from None
            if message[0] == "hb":
                last_beat = time.perf_counter()
                continue
            if message[0] == "err":
                _, got_ordinal, detail = message
                if got_ordinal != ordinal:
                    continue  # stale reply from a previous incarnation
                raise ScorerFault("poison", detail)
            _, got_ordinal, values = message
            if got_ordinal != ordinal:
                continue  # stale reply from before a restart
            return np.asarray(values, dtype=np.float64)

    # -- accounting -----------------------------------------------------

    def stats(self) -> SupervisorStats:
        return SupervisorStats(
            requests=self.requests,
            scored_isolated=self.scored_isolated,
            crashes=self.crashes,
            stalls=self.stalls,
            timeouts=self.timeouts,
            poisons=self.poisons,
            retries=self.retries,
            restarts=self.restarts,
            breaker_trips=self.breaker_trips,
            breaker_state=self._breaker,
            batches_degraded=self.batches_degraded,
            windows_degraded=self.windows_degraded,
            batches_unscorable=self.batches_unscorable,
            windows_unscorable=self.windows_unscorable,
            recoveries=self.recoveries,
            recovery_s_total=self.recovery_s_total,
        )


def _start_methods() -> list[str]:
    import multiprocessing

    return multiprocessing.get_all_start_methods()
