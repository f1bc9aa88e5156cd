"""Tests for the crash-isolated scoring backend.

The supervision layer's load-bearing promises: (1) with zero injected
faults the supervised backend's decision values are *bit-identical* to
in-process scoring; (2) every fault kind (crash, stall, timeout,
poison) is detected by its own signal, retried with a child restart,
and -- when retries run out -- absorbed by the degraded in-process
leg, or surfaced as :class:`ScoringUnavailable` when that fails too;
(3) the circuit breaker's closed -> open -> half-open ladder is
deterministic (cooldown counted in batches, not seconds).
"""

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from repro.core.versions import DetectorVersion
from repro.faults.runtime import RuntimeFaultPlan
from repro.gateway import (
    InProcessBackend,
    ScoringUnavailable,
    SupervisedScoringBackend,
    window_from_slot,
)
from repro.wiot.channel import DeliveredPacket
from repro.wiot.sensor import BodySensor

# Chaos-speed knobs: ms-scale watchdog so fault tests finish fast.
FAST = dict(
    heartbeat_interval_s=0.01,
    heartbeat_timeout_s=0.15,
    batch_timeout_s=5.0,
    backoff_base_s=0.01,
)


def _windows(record):
    """The record's device-format windows, assembled like the gateway's."""
    out = []
    ecg = BodySensor("s-ecg", "ecg", record)
    abp = BodySensor("s-abp", "abp", record)
    for e, a in zip(ecg.packets(), abp.packets()):
        slot = {
            "ecg": DeliveredPacket(packet=e, arrival_time_s=e.start_time_s),
            "abp": DeliveredPacket(packet=a, arrival_time_s=a.start_time_s),
        }
        out.append(window_from_slot(slot))
    return out


@pytest.fixture
def detector(trained_detectors):
    return trained_detectors[DetectorVersion.SIMPLIFIED]


@pytest.fixture
def keyed(detector):
    return {detector.version.value: detector}


class TestBitIdentity:
    def test_zero_faults_matches_in_process_bitwise(
        self, keyed, detector, test_record
    ):
        windows = _windows(test_record)
        key = detector.version.value
        reference = InProcessBackend(keyed).score(key, windows)

        backend = SupervisedScoringBackend(keyed, **FAST)
        backend.start()
        try:
            # Mixed batch sizes: isolation must not perturb values.
            got = np.concatenate(
                [
                    backend.score(key, windows[:7]),
                    backend.score(key, windows[7:12]),
                    backend.score(key, windows[12:]),
                ]
            )
        finally:
            backend.close()
        assert got.dtype == reference.dtype == np.float64
        assert got.tobytes() == reference.tobytes()
        stats = backend.stats()
        assert stats.faults == 0
        assert stats.scored_isolated == len(windows)
        assert stats.batches_degraded == 0

    def test_sigkilled_child_restarts_and_stream_stays_bit_identical(
        self, keyed, detector, test_record
    ):
        """An *external* SIGKILL (OOM killer stand-in) mid-stream: the
        next batch detects the crash, restarts, and the full value
        stream is still bitwise equal to in-process scoring."""
        windows = _windows(test_record)
        key = detector.version.value
        reference = InProcessBackend(keyed).score(key, windows)

        backend = SupervisedScoringBackend(keyed, **FAST)
        backend.start()
        try:
            first = backend.score(key, windows[:8])
            pid = backend.child_pid
            assert pid is not None
            os.kill(pid, signal.SIGKILL)
            # Let the kill land before the next request probes liveness.
            deadline = time.perf_counter() + 5.0
            while backend._process.is_alive():
                if time.perf_counter() > deadline:
                    pytest.fail("SIGKILLed child never died")
                time.sleep(0.01)
            second = backend.score(key, windows[8:])
        finally:
            backend.close()
        got = np.concatenate([first, second])
        assert got.tobytes() == reference.tobytes()
        stats = backend.stats()
        assert stats.crashes >= 1
        assert stats.restarts >= 1
        assert stats.batches_degraded == 0  # retry recovered it in isolation


class TestFaultLadder:
    def test_crash_is_retried_transparently(self, keyed, detector, test_record):
        windows = _windows(test_record)[:6]
        key = detector.version.value
        plan = RuntimeFaultPlan(crash=frozenset({1}))
        backend = SupervisedScoringBackend(keyed, fault_plan=plan, **FAST)
        backend.start()
        try:
            values = backend.score(key, windows)
        finally:
            backend.close()
        reference = InProcessBackend(keyed).score(key, windows)
        assert values.tobytes() == reference.tobytes()
        stats = backend.stats()
        assert stats.crashes == 1
        assert stats.retries == 1
        assert stats.restarts == 1
        assert stats.mean_recovery_s > 0.0

    def test_stall_detected_by_heartbeat_not_deadline(
        self, keyed, detector, test_record
    ):
        windows = _windows(test_record)[:4]
        key = detector.version.value
        plan = RuntimeFaultPlan(stall=frozenset({1}))
        # Batch deadline is far away: only the missing heartbeat can
        # unblock this batch quickly.
        backend = SupervisedScoringBackend(
            keyed, fault_plan=plan, **{**FAST, "batch_timeout_s": 60.0}
        )
        backend.start()
        started = time.perf_counter()
        try:
            values = backend.score(key, windows)
        finally:
            backend.close()
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0  # nowhere near the 60 s deadline
        stats = backend.stats()
        assert stats.stalls == 1
        assert stats.timeouts == 0
        reference = InProcessBackend(keyed).score(key, windows)
        assert values.tobytes() == reference.tobytes()

    def test_slow_batch_hits_the_deadline(self, keyed, detector, test_record):
        windows = _windows(test_record)[:4]
        key = detector.version.value
        plan = RuntimeFaultPlan(slow={1: 5.0})
        backend = SupervisedScoringBackend(
            keyed, fault_plan=plan, **{**FAST, "batch_timeout_s": 0.4}
        )
        backend.start()
        try:
            values = backend.score(key, windows)
        finally:
            backend.close()
        stats = backend.stats()
        assert stats.timeouts == 1
        assert stats.stalls == 0  # it kept beating, it was just slow
        reference = InProcessBackend(keyed).score(key, windows)
        assert values.tobytes() == reference.tobytes()

    def test_exhausted_retries_fall_to_degraded_bit_identically(
        self, keyed, detector, test_record
    ):
        windows = _windows(test_record)[:5]
        key = detector.version.value
        # Every attempt poisoned: ordinals 1..3 cover the initial try
        # plus both retries.
        plan = RuntimeFaultPlan(poison=frozenset({1, 2, 3}))
        backend = SupervisedScoringBackend(
            keyed, fault_plan=plan, max_retries=2, **FAST
        )
        backend.start()
        try:
            values = backend.score(key, windows)
        finally:
            backend.close()
        reference = InProcessBackend(keyed).score(key, windows)
        assert values.tobytes() == reference.tobytes()
        stats = backend.stats()
        assert stats.poisons == 3
        assert stats.retries == 2
        assert stats.batches_degraded == 1
        assert stats.windows_degraded == len(windows)

    def test_failing_degraded_leg_abstains(self, keyed, detector, test_record):
        """A batch nothing can score: the child reports the NaN window
        as poison on every attempt, and the in-process leg refuses it
        too, so the batch is counted unscorable and the gateway told to
        abstain."""
        windows = _windows(test_record)[:5]
        ecg = windows[2].ecg.copy()
        ecg[10] = np.nan
        windows[2] = dataclasses.replace(windows[2], ecg=ecg)
        key = detector.version.value
        backend = SupervisedScoringBackend(keyed, max_retries=1, **FAST)
        backend.start()
        try:
            with pytest.raises(ScoringUnavailable):
                backend.score(key, windows)
        finally:
            backend.close()
        stats = backend.stats()
        assert stats.poisons == 2
        assert stats.batches_unscorable == 1
        assert stats.windows_unscorable == len(windows)
        assert stats.batches_degraded == 0


class TestCircuitBreaker:
    def test_trip_cooldown_probe_and_close(self, keyed, detector, test_record):
        """The full ladder: failure trips the breaker, the cooldown
        routes batches to degraded without touching the child, a failed
        half-open probe re-trips, a clean probe closes."""
        windows = _windows(test_record)[:3]
        key = detector.version.value
        # Ordinals 1 and 2 are the only poisoned requests: batch 1 fails
        # (trip), the probe fails (re-trip), the second probe is clean.
        plan = RuntimeFaultPlan(poison=frozenset({1, 2}))
        backend = SupervisedScoringBackend(
            keyed,
            fault_plan=plan,
            max_retries=0,
            breaker_threshold=1,
            breaker_cooldown_batches=1,
            **FAST,
        )
        backend.start()
        try:
            backend.score(key, windows)  # ordinal 1: poison -> trip
            assert backend.stats().breaker_state == "open"
            assert backend.stats().breaker_trips == 1

            backend.score(key, windows)  # cooldown: degraded, child idle
            assert backend.requests_sent == 1  # child never consulted

            backend.score(key, windows)  # probe (ordinal 2): poison -> re-trip
            assert backend.stats().breaker_trips == 2
            assert backend.stats().breaker_state == "open"

            backend.score(key, windows)  # cooldown again
            values = backend.score(key, windows)  # clean probe -> closed
            assert backend.stats().breaker_state == "closed"
        finally:
            backend.close()
        reference = InProcessBackend(keyed).score(key, windows)
        assert values.tobytes() == reference.tobytes()
        stats = backend.stats()
        # Both failed batches fall through to degraded, plus 2 cooldowns.
        assert stats.batches_degraded == 4
        assert stats.poisons == 2

    def test_consecutive_threshold_counts_batches_not_attempts(
        self, keyed, detector, test_record
    ):
        windows = _windows(test_record)[:3]
        key = detector.version.value
        # 2 poisoned batches (1 attempt each), threshold 2: the second
        # batch trips it; a single batch's retries never would.
        plan = RuntimeFaultPlan(poison=frozenset({1, 2}))
        backend = SupervisedScoringBackend(
            keyed,
            fault_plan=plan,
            max_retries=0,
            breaker_threshold=2,
            breaker_cooldown_batches=4,
            **FAST,
        )
        backend.start()
        try:
            backend.score(key, windows)
            assert backend.stats().breaker_state == "closed"
            backend.score(key, windows)
            assert backend.stats().breaker_state == "open"
        finally:
            backend.close()
        assert backend.stats().breaker_trips == 1


class TestShutdownRace:
    def test_spawn_after_close_does_not_leak_a_child(self, keyed):
        """A worker-thread restart racing ``close()`` must not respawn.

        The scoring thread calls ``_spawn`` after a fault; if ``close``
        (or ``abort``) has already run, that respawn would leak a child
        process with nobody left to reap it.  The guard makes the late
        ``_spawn`` a no-op.
        """
        backend = SupervisedScoringBackend(keyed, **FAST)
        backend.start()
        backend.close()
        backend._spawn()  # the racing restart, after shutdown
        assert backend._process is None


class TestValidation:
    def test_rejects_bad_knobs(self, keyed):
        with pytest.raises(ValueError):
            SupervisedScoringBackend({})
        with pytest.raises(ValueError):
            SupervisedScoringBackend(keyed, heartbeat_timeout_s=0.01,
                                     heartbeat_interval_s=0.02)
        with pytest.raises(ValueError):
            SupervisedScoringBackend(keyed, batch_timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisedScoringBackend(keyed, max_retries=-1)
        with pytest.raises(ValueError):
            SupervisedScoringBackend(keyed, breaker_threshold=0)

    def test_score_before_start_refused(self, keyed, detector):
        backend = SupervisedScoringBackend(keyed)
        with pytest.raises(RuntimeError):
            backend.score(detector.version.value, [])
