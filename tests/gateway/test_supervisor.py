"""Tests for the crash-isolated scoring backend.

The supervision layer's load-bearing promises: (1) with zero injected
faults the supervised backend's decision values are *bit-identical* to
in-process scoring; (2) every fault kind (crash, stall, timeout,
poison) is detected by its own signal, retried with a child restart,
and -- when retries run out -- absorbed by the degraded in-process
leg, or surfaced as :class:`ScoringUnavailable` when that fails too;
(3) the circuit breaker's closed -> open -> half-open ladder is
deterministic (cooldown counted in batches, not seconds); (4) windows
cross the pipe as raw buffers that decode to equal windows, and the
child beats only while it scores.
"""

import dataclasses
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.versions import DetectorVersion
from repro.faults.runtime import RuntimeFaultPlan
from repro.gateway import (
    InProcessBackend,
    ScoringUnavailable,
    SupervisedScoringBackend,
    window_from_slot,
)
from repro.gateway.supervisor import _decode_windows, _encode_windows
from repro.signals.dataset import SignalWindow
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


def _mixed_batch(windows):
    """A batch that stresses the wire format, built from real windows:
    float32 and float64 channels mixed, a ragged (shortened) window,
    non-contiguous views, every ``altered`` value and a non-ASCII
    ``subject_id``."""

    def shortened(w, n):
        return dataclasses.replace(
            w,
            ecg=w.ecg[:n],
            abp=w.abp[:n],
            r_peaks=w.r_peaks[w.r_peaks < n],
            systolic_peaks=w.systolic_peaks[w.systolic_peaks < n],
        )

    def strided(a):
        return np.repeat(a, 2)[::2]  # equal values, not contiguous

    return [
        windows[0],
        dataclasses.replace(windows[1], ecg=windows[1].ecg.astype(np.float64)),
        shortened(windows[2], 700),
        dataclasses.replace(
            windows[3],
            abp=strided(windows[3].abp.astype(np.float64)),
            ecg=strided(windows[3].ecg),
            subject_id="wearer-ü-心",
            altered=True,
        ),
        dataclasses.replace(windows[4], altered=False),
    ]


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

    def test_mixed_batch_matches_in_process_bitwise(
        self, keyed, detector, test_record
    ):
        windows = _mixed_batch(_windows(test_record))
        key = detector.version.value
        reference = InProcessBackend(keyed).score(key, windows)
        backend = SupervisedScoringBackend(keyed, **FAST)
        backend.start()
        try:
            got = backend.score(key, windows)
        finally:
            backend.close()
        assert got.dtype == np.float64
        assert got.tobytes() == reference.tobytes()
        assert backend.stats().scored_isolated == len(windows)


@st.composite
def _wire_window(draw):
    """Any window the wire format carries: ragged length (0 included),
    float32 or float64 per channel, possibly a non-contiguous view."""
    n = draw(st.integers(0, 40))
    channels = []
    for _ in range(2):
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        step = draw(st.integers(1, 3))
        channels.append(draw(hnp.arrays(dtype, n * step))[::step])
    peaks = [
        draw(
            hnp.arrays(
                draw(st.sampled_from([np.intp, np.int32])),
                st.integers(0, 4),
                elements=st.integers(0, 10_000),
            )
        )
        for _ in range(2)
    ]
    return SignalWindow(
        ecg=channels[0],
        abp=channels[1],
        r_peaks=peaks[0],
        systolic_peaks=peaks[1],
        sample_rate=draw(st.floats(1.0, 1e4)),
        subject_id=draw(st.text(max_size=8)),
        altered=draw(st.sampled_from([None, True, False])),
    )


#: A one-window batch of one sample, with an empty peak array.
_ONE_SAMPLE = SignalWindow(
    ecg=np.array([1.5], dtype=np.float32),
    abp=np.array([np.nan]),
    r_peaks=np.array([], dtype=np.intp),
    systolic_peaks=np.array([0]),
    sample_rate=360.0,
    subject_id="sujet-é",
)


class TestWireFormat:
    @settings(max_examples=200, deadline=None)
    @given(
        key=st.text(min_size=1, max_size=12),
        windows=st.lists(_wire_window(), min_size=1, max_size=5),
    )
    @example(key="original", windows=[_ONE_SAMPLE])
    def test_encode_decode_round_trip(self, key, windows):
        ordinal, got_key, decoded = _decode_windows(_encode_windows(7, key, windows))
        assert (ordinal, got_key) == (7, key)
        assert len(decoded) == len(windows)
        for want, got in zip(windows, decoded):
            for name in ("ecg", "abp", "r_peaks", "systolic_peaks"):
                a, b = getattr(want, name), getattr(got, name)
                assert b.dtype == a.dtype
                assert b.shape == a.shape
                assert b.tobytes() == a.tobytes()  # bitwise, NaNs included
                assert b.ctypes.data % 8 == 0
            assert got.sample_rate == want.sample_rate
            assert got.subject_id == want.subject_id
            assert got.altered is want.altered


class TestHeartbeat:
    def test_idle_child_sends_nothing(self, keyed, detector, test_record):
        """Beats come only while a batch is scored: an idle child, just
        started or just done with a batch, leaves the pipe empty."""
        interval = FAST["heartbeat_interval_s"]
        backend = SupervisedScoringBackend(keyed, **FAST)
        backend.start()
        try:
            time.sleep(10 * interval)
            assert not backend._conn.poll(0)
            backend.score(detector.version.value, _windows(test_record)[:2])
            time.sleep(10 * interval)
            assert not backend._conn.poll(0)
        finally:
            backend.close()

    def test_slow_batch_under_the_heartbeat_timeout_is_no_fault(
        self, keyed, detector, test_record
    ):
        """A batch that scores for several beat intervals keeps beating,
        so it is neither a stall nor a timeout."""
        windows = _windows(test_record)[:3]
        key = detector.version.value
        slow_s = 6 * FAST["heartbeat_interval_s"]
        assert slow_s < FAST["heartbeat_timeout_s"]
        plan = RuntimeFaultPlan(slow={1: slow_s})
        backend = SupervisedScoringBackend(keyed, fault_plan=plan, **FAST)
        backend.start()
        try:
            values = backend.score(key, windows)
        finally:
            backend.close()
        stats = backend.stats()
        assert stats.faults == 0
        assert stats.restarts == 0
        assert stats.scored_isolated == len(windows)
        reference = InProcessBackend(keyed).score(key, windows)
        assert values.tobytes() == reference.tobytes()


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

    def test_nan_in_a_mixed_batch_takes_the_same_path(
        self, keyed, detector, test_record
    ):
        """A NaN in a float64 channel of a mixed, ragged batch: poisoned
        in the child on every attempt, refused by the degraded leg,
        surfaced as unscorable."""
        windows = _mixed_batch(_windows(test_record))
        abp = windows[1].abp.astype(np.float64)
        abp[5] = np.nan
        windows[1] = dataclasses.replace(windows[1], abp=abp)
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
        """A scorer-thread restart racing ``close()`` must not respawn.

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
