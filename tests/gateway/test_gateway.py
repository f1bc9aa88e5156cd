"""Tests for the async ingestion gateway.

The load-bearing property is *bit-identity*: micro-batching windows
across wearer sessions must produce, for every wearer, exactly the
verdict sequence a per-wearer sequential
:class:`~repro.core.streaming.StreamingDetector` run would have -- same
decision values (bitwise), same abstains, same episodes.  Everything
else here is the backpressure and lifecycle accounting contract.
"""

import asyncio
import copy
import dataclasses
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.adaptive.degradation import DegradationController
from repro.core.streaming import StreamingDetector
from repro.core.versions import DetectorVersion
from repro.gateway import (
    IngestionGateway,
    InProcessBackend,
    SupervisedScoringBackend,
    window_from_slot,
)
from repro.signals.quality import SignalQualityIndex
from repro.wiot.channel import DeliveredPacket
from repro.wiot.sensor import BodySensor, SensorPacket


def _deliveries(record, flatline=()):
    """One wearer's in-order deliveries (ECG+ABP per sequence); sequences
    in ``flatline`` get zeroed ECG samples so the SQI gate abstains."""
    out = []
    ecg = BodySensor("s-ecg", "ecg", record)
    abp = BodySensor("s-abp", "abp", record)
    for e, a in zip(ecg.packets(), abp.packets()):
        if e.sequence in flatline:
            e = dataclasses.replace(e, samples=np.zeros_like(e.samples))
        out.append(DeliveredPacket(packet=e, arrival_time_s=e.start_time_s))
        out.append(DeliveredPacket(packet=a, arrival_time_s=a.start_time_s))
    return out


def _windows_of(deliveries):
    """The float32 windows those deliveries assemble into, in order."""
    windows = []
    for e, a in zip(deliveries[0::2], deliveries[1::2]):
        windows.append(window_from_slot({"ecg": e, "abp": a}))
    return windows


#: Millisecond-scale watchdog for the supervised lifecycle tests.
_FAST_WATCHDOG = dict(
    heartbeat_interval_s=0.01,
    heartbeat_timeout_s=0.15,
    batch_timeout_s=5.0,
    backoff_base_s=0.01,
)


async def _drive(gateway, streams):
    """Submit every wearer's stream, round-robin, through a started
    gateway; returns the per-wearer session objects."""
    sessions = {}
    async with gateway:
        iters = {w: iter(d) for w, d in streams.items()}
        alive = set(iters)
        while alive:
            for wearer_id in sorted(alive):
                try:
                    gateway.submit(wearer_id, next(iters[wearer_id]))
                except StopIteration:
                    alive.discard(wearer_id)
                sessions.setdefault(wearer_id, gateway.session(wearer_id))
            await asyncio.sleep(0)
    return sessions


class TestBitIdentity:
    def test_cross_session_batches_match_sequential(
        self, trained_detectors, test_record, test_donor_records
    ):
        """Three wearers, interleaved, scored in shared micro-batches
        (batch_size forces mixing) == three independent sequential runs."""
        detector = trained_detectors[DetectorVersion.ORIGINAL]
        gate = SignalQualityIndex()
        records = [test_record, *test_donor_records]
        # Wearer 0 gets two flatlined windows so abstains interleave with
        # scores inside shared batches.
        streams = {
            f"w{i}": _deliveries(record, flatline=(3, 4) if i == 0 else ())
            for i, record in enumerate(records)
        }
        verdicts = []
        gateway = IngestionGateway(
            detector,
            quality_gate=gate,
            batch_size=5,  # not a multiple of anything: batches straddle wearers
            on_verdict=verdicts.append,
        )
        sessions = asyncio.run(_drive(gateway, streams))
        # Micro-batching actually crossed sessions.
        assert gateway.stats().mean_batch_size > 1.0

        for wearer_id, deliveries in streams.items():
            session = sessions[wearer_id]
            reference = StreamingDetector(
                detector, votes_needed=2, vote_window=3, quality_gate=gate
            )
            expected = []
            for window in _windows_of(deliveries):
                report = gate.assess(window)
                if not report.usable:
                    expected.append(("abstain", None))
                else:
                    expected.append(("score", detector.decision_value(window)))
                reference.process_window(window)
            reference.finish()

            got = [
                ("abstain", None) if v.abstained else ("score", v.decision_value)
                for v in verdicts
                if v.wearer_id == wearer_id
            ]
            # Bitwise-equal decision values, same abstain placement.
            assert got == expected
            # Identical episode structure and debouncer state.
            assert session.episodes == reference.episodes
            assert (
                session.debouncer.abstained_indexes
                == reference.abstained_indexes
            )

    def test_degraded_tiers_match_sequential(
        self, trained_detectors, dataset, victim
    ):
        """Per-session tier controllers: a noisy wearer steps down to the
        fallback tier exactly where its own sequential run would."""
        primary = trained_detectors[DetectorVersion.ORIGINAL]
        fallbacks = {
            v: d for v, d in trained_detectors.items() if v is not primary.version
        }
        gate = SignalQualityIndex()
        record = dataset.record(victim, 90.0, purpose="extra")
        # A run of flatlined windows long enough to trip the controller.
        streams = {
            "noisy": _deliveries(record, flatline=(2, 3, 4, 5, 6)),
            "clean": _deliveries(record),
        }
        template = DegradationController(degrade_after=2, recover_after=30)
        verdicts = []
        gateway = IngestionGateway(
            primary,
            quality_gate=gate,
            fallbacks=fallbacks,
            degradation=template,
            batch_size=4,
            on_verdict=verdicts.append,
        )
        sessions = asyncio.run(_drive(gateway, streams))

        for wearer_id, deliveries in streams.items():
            session = sessions[wearer_id]
            reference = StreamingDetector(
                primary,
                quality_gate=gate,
                fallbacks=fallbacks,
                degradation=template.clone(),
            )
            for window in _windows_of(deliveries):
                reference.process_window(window)
            got = [
                v.decision_value
                for v in verdicts
                if v.wearer_id == wearer_id and not v.abstained
            ]
            # Recompute the reference values sequentially with a second
            # independent controller to pin the tier schedule.
            control = template.clone()
            expected = []
            for window in _windows_of(deliveries):
                report = gate.assess(window)
                control.observe(report)
                if not report.usable:
                    continue
                version = control.active
                active = primary if version is primary.version else fallbacks[version]
                expected.append(active.decision_value(window))
            assert got == expected
            assert session.episodes == reference.episodes
        # The noisy wearer actually switched tiers; the clean one never did.
        assert sessions["noisy"].degradation.switches
        assert not sessions["clean"].degradation.switches


class TestBackpressure:
    def test_per_session_inflight_cap_sheds_only_the_slow_wearer(
        self, trained_detectors, test_record
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)  # 20 windows

        async def run():
            gateway = IngestionGateway(
                detector,
                batch_size=64,
                queue_windows=1024,
                max_inflight_per_session=3,
            )
            async with gateway:
                shed = 0
                # Submit every window with no yield: the batcher cannot
                # drain, so the 4th assembled window onward must shed.
                for delivered in deliveries:
                    if not gateway.submit("slow", delivered):
                        shed += 1
                session = gateway.session("slow")
                assert session.inflight == 3
                assert shed == 17
                assert session.windows_shed == 17
                stats = gateway.stats()
                assert stats.windows_shed_session == 17
                assert stats.windows_shed_queue == 0
                return gateway, session

        gateway, session = asyncio.run(run())
        # Shutdown scored the 3 queued windows; accounting conserves.
        stats = gateway.stats()
        assert stats.windows_scored == 3
        assert stats.windows_assembled == 20
        assert (
            stats.verdicts + stats.windows_shed == stats.windows_assembled
        )
        assert session.closed

    def test_full_queue_sheds_with_global_accounting(
        self, trained_detectors, test_record
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)

        async def run():
            gateway = IngestionGateway(
                detector,
                batch_size=64,
                queue_windows=2,
                max_inflight_per_session=100,
            )
            async with gateway:
                results = [
                    gateway.submit("w", delivered) for delivered in deliveries
                ]
                # 20 assembled windows into a 2-slot queue: 18 shed.
                assert results.count(False) == 18
                stats = gateway.stats()
                assert stats.windows_shed_queue == 18
                assert stats.windows_shed_session == 0
                return gateway

        gateway = asyncio.run(run())
        stats = gateway.stats()
        assert stats.windows_scored == 2
        assert stats.verdicts + stats.windows_shed == stats.windows_assembled

    def test_shed_windows_never_reach_the_debouncer(
        self, trained_detectors, test_record
    ):
        """A shed window is a loss, not a verdict: the debouncer's clock
        only advances for scored/abstained windows."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)

        async def run():
            gateway = IngestionGateway(
                detector, batch_size=8, max_inflight_per_session=5
            )
            async with gateway:
                for delivered in deliveries:
                    gateway.submit("w", delivered)
                session = gateway.session("w")
                return gateway, session

        _, session = asyncio.run(run())
        assert session.windows_shed > 0
        assert (
            session.debouncer.state.window_index
            == session.windows_scored + session.windows_abstained
        )


class TestNonFiniteSamples:
    def test_nan_sample_becomes_an_abstain_verdict(
        self, trained_detectors, test_record
    ):
        """A NaN sample fails the SQI gate instead of raising out of
        ``submit()``; the window is an abstain and conservation closes."""
        detector = trained_detectors[DetectorVersion.ORIGINAL]
        deliveries = _deliveries(test_record)
        ecg = deliveries[2 * 4]
        samples = ecg.packet.samples.copy()
        samples[10] = np.nan
        deliveries[2 * 4] = dataclasses.replace(
            ecg, packet=dataclasses.replace(ecg.packet, samples=samples)
        )
        verdicts = []
        gateway = IngestionGateway(
            detector, quality_gate=SignalQualityIndex(), on_verdict=verdicts.append
        )
        asyncio.run(_drive(gateway, {"w": deliveries}))
        abstained = [v.sequence for v in verdicts if v.abstained]
        assert abstained == [ecg.packet.sequence]
        assert verdicts[4].sqi == 0.0
        stats = gateway.stats()
        assert stats.windows_assembled == 20
        assert stats.windows_abstained == 1
        assert stats.verdicts + stats.windows_shed == stats.windows_assembled


    @pytest.mark.parametrize(
        "quality_gate", [SignalQualityIndex(), None], ids=["sqi-gate", "no-gate"]
    )
    def test_plus_and_minus_inf_pair_abstains_and_serving_goes_on(
        self, trained_detectors, test_record, quality_gate
    ):
        """A window with one +inf and one -inf ECG sample is one abstain,
        gated or not (it fails the SQI gate; without a gate it is
        abstained as unscorable): the batcher keeps scoring, the other
        wearer keeps every verdict, and drain() returns."""
        detector = trained_detectors[DetectorVersion.ORIGINAL]
        clean = _deliveries(test_record)
        poisoned = list(clean)
        ecg = poisoned[2 * 4]
        samples = ecg.packet.samples.copy()
        samples[100], samples[700] = np.inf, -np.inf
        poisoned[2 * 4] = dataclasses.replace(
            ecg, packet=dataclasses.replace(ecg.packet, samples=samples)
        )
        verdicts = []
        gateway = IngestionGateway(
            detector, quality_gate=quality_gate, on_verdict=verdicts.append
        )

        async def run():
            async with gateway:
                for a, b in zip(clean, poisoned):
                    gateway.submit("clean", a)
                    gateway.submit("poisoned", b)
                await asyncio.wait_for(gateway.drain(), timeout=30.0)

        asyncio.run(run())
        abstained = [(v.wearer_id, v.sequence) for v in verdicts if v.abstained]
        assert abstained == [("poisoned", ecg.packet.sequence)]
        assert sum(v.wearer_id == "clean" for v in verdicts) == 20
        stats = gateway.stats()
        assert stats.windows_assembled == 40
        assert stats.verdicts == 40
        assert stats.verdicts + stats.windows_shed == stats.windows_assembled


class TestShortWindows:
    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_window_under_two_samples_is_an_abstain(
        self, trained_detectors, n_samples
    ):
        """A window too short to have a first difference fails the SQI
        gate instead of raising out of ``submit()``: it gets an abstain
        verdict with sqi 0, and conservation closes."""
        detector = trained_detectors[DetectorVersion.ORIGINAL]
        halves = [
            DeliveredPacket(
                packet=SensorPacket(
                    sensor_id=f"s-{channel}",
                    channel=channel,
                    sequence=0,
                    start_time_s=0.0,
                    samples=np.ones(n_samples),
                    peak_indexes=np.empty(0, dtype=np.intp),
                    sample_rate=360.0,
                ),
                arrival_time_s=0.0,
            )
            for channel in ("ecg", "abp")
        ]
        verdicts = []
        gateway = IngestionGateway(
            detector, quality_gate=SignalQualityIndex(), on_verdict=verdicts.append
        )
        asyncio.run(_drive(gateway, {"w": halves}))
        assert [(v.abstained, v.sqi) for v in verdicts] == [(True, 0.0)]
        stats = gateway.stats()
        assert stats.windows_assembled == 1
        assert stats.windows_abstained == 1
        assert stats.verdicts + stats.windows_shed == stats.windows_assembled


class TestLifecycle:
    def test_shutdown_leaves_zero_sessions(self, trained_detectors, test_record):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        streams = {
            f"w{i}": _deliveries(test_record) for i in range(3)
        }
        gateway = IngestionGateway(detector, batch_size=16)
        sessions = asyncio.run(_drive(gateway, streams))
        assert gateway.active_sessions == 0
        assert all(s.closed for s in sessions.values())
        stats = gateway.stats()
        assert stats.sessions_started == 3
        assert stats.sessions_active == 0
        assert stats.windows_assembled == 60
        assert stats.verdicts + stats.windows_shed == 60

    def test_submit_after_shutdown_raises(self, trained_detectors, test_record):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        delivered = _deliveries(test_record)[0]

        async def run():
            gateway = IngestionGateway(detector)
            async with gateway:
                pass
            with pytest.raises(RuntimeError, match="shutting down"):
                gateway.submit("w", delivered)

        asyncio.run(run())

    def test_end_session_with_inflight_finalizes_after_scoring(
        self, trained_detectors, test_record
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)[:8]  # 4 windows

        async def run():
            gateway = IngestionGateway(detector, batch_size=64)
            async with gateway:
                for delivered in deliveries:
                    gateway.submit("w", delivered)
                session = gateway.end_session("w")
                # Still awaiting scoring: detached but not yet finalized.
                assert session.ending and not session.closed
                assert gateway.active_sessions == 0
                await gateway.drain()
                assert session.closed
                assert session.windows_scored == 4
                return session

        session = asyncio.run(run())
        assert session.episodes is not None  # debouncer was finished

    def test_ending_session_stays_in_stats_until_finalized(
        self, trained_detectors, test_record
    ):
        """A session detached with windows still queued is neither live
        nor finalized; its counts must not vanish from stats() meanwhile."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)[:8]  # 4 windows
        seen = []

        async def run():
            gateway = IngestionGateway(
                detector,
                batch_size=2,
                on_verdict=lambda _: seen.append(gateway.stats().windows_assembled),
            )
            async with gateway:
                for delivered in deliveries:
                    gateway.submit("w", delivered)
                before = gateway.stats().windows_assembled
                gateway.end_session("w")
                ending = gateway.stats().windows_assembled
                await gateway.drain()
                return before, ending, gateway.stats().windows_assembled

        before, ending, after = asyncio.run(run())
        assert (before, ending, after) == (4, 4, 4)
        assert seen == [4, 4, 4, 4]

    def test_lost_halves_count_per_session(self, trained_detectors, test_record):
        """Dropping one half of a window surfaces as an incomplete window
        in the gateway stats, never a verdict."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)
        del deliveries[6 * 2 + 1]  # drop window 6's ABP half

        async def run():
            gateway = IngestionGateway(detector, batch_size=8,
                                       max_inflight_per_session=100)
            async with gateway:
                for delivered in deliveries:
                    gateway.submit("w", delivered)
                    await asyncio.sleep(0)
                return gateway

        gateway = asyncio.run(run())
        stats = gateway.stats()
        assert stats.windows_assembled == 19
        assert stats.incomplete_windows == 1
        assert stats.verdicts == 19

    def test_drain_sleeps_while_the_backend_is_blocked(
        self, trained_detectors, test_record
    ):
        """``drain()`` awaits the batcher going idle: waiting 0.3 s behind
        a blocked backend costs the loop thread next to no CPU."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        release = threading.Event()

        class BlockedBackend(InProcessBackend):
            def score(self, key, windows):
                release.wait(10.0)
                return super().score(key, windows)

        async def run():
            gateway = IngestionGateway(
                detector,
                backend=BlockedBackend({detector.version.value: detector}),
            )
            async with gateway:
                for delivered in _deliveries(test_record)[:2]:
                    gateway.submit("w", delivered)
                timer.start()
                cpu_s, wall_s = time.thread_time(), time.perf_counter()
                await gateway.drain()
                cpu_s = time.thread_time() - cpu_s
                wall_s = time.perf_counter() - wall_s
                assert gateway.stats().windows_scored == 1
            return cpu_s, wall_s

        timer = threading.Timer(0.3, release.set)
        cpu_s, wall_s = asyncio.run(run())
        timer.join(timeout=10.0)
        assert not timer.is_alive()
        assert wall_s >= 0.25
        assert cpu_s < 0.05

    def test_detector_error_abstains_its_group_and_drain_returns(
        self, trained_detectors, test_record
    ):
        """A detector that raises on one batch costs that batch's windows
        an abstain each; the batcher keeps scoring and ``drain()``
        returns."""
        detector = copy.copy(trained_detectors[DetectorVersion.SIMPLIFIED])
        batch_sizes = []
        score = detector.decision_values

        def flaky(windows):
            batch_sizes.append(len(windows))
            if len(batch_sizes) == 2:
                raise ValueError("corrupt batch")
            return score(windows)

        detector.decision_values = flaky
        gateway = IngestionGateway(detector, batch_size=4)

        async def run():
            gateway.start()
            for a, b in zip(_deliveries(test_record), _deliveries(test_record)):
                gateway.submit("a", a)
                gateway.submit("b", b)
                await asyncio.sleep(0)
            try:
                await asyncio.wait_for(gateway.drain(), timeout=5.0)
            except TimeoutError:
                return False
            await gateway.shutdown()
            return True

        assert asyncio.run(run()), "drain() hung after a scoring error"
        stats = gateway.stats()
        assert len(batch_sizes) > 2
        assert stats.windows_unscorable == batch_sizes[1]
        assert stats.windows_abstained == batch_sizes[1]
        assert stats.windows_assembled == 40
        assert stats.verdicts + stats.windows_shed == stats.windows_assembled

    def test_shutdown_stops_the_scorer_thread_and_the_child(
        self, trained_detectors, test_record
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        backend = SupervisedScoringBackend(
            {detector.version.value: detector}, **_FAST_WATCHDOG
        )
        gateway = IngestionGateway(detector, backend=backend)
        scorers = []

        async def run():
            async with gateway:
                scorers.append(gateway._scorer)
                for delivered in _deliveries(test_record):
                    gateway.submit("w", delivered)
                    await asyncio.sleep(0)

        asyncio.run(run())
        assert not scorers[0].is_alive()
        assert not multiprocessing.active_children()
        assert gateway.stats().windows_scored == 20
        assert backend.stats().scored_isolated == 20

    def test_abort_mid_batch_stops_the_scorer_thread_and_the_child(
        self, trained_detectors, test_record
    ):
        """``abort()`` while the scorer thread is blocked inside
        ``backend.score``: closing the backend releases it, its late
        result is dropped, and nothing -- thread, child, exception --
        outlives the abort."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        scoring, release = threading.Event(), threading.Event()

        class BlockedBackend(SupervisedScoringBackend):
            def score(self, key, windows):
                scoring.set()
                release.wait(10.0)
                return super().score(key, windows)

            def close(self):
                release.set()
                super().close()

        backend = BlockedBackend(
            {detector.version.value: detector}, **_FAST_WATCHDOG
        )
        verdicts = []
        gateway = IngestionGateway(
            detector, backend=backend, on_verdict=verdicts.append
        )
        scorers, loop_errors = [], []

        async def run():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            gateway.start()
            scorers.append(gateway._scorer)
            for delivered in _deliveries(test_record)[:4]:
                gateway.submit("w", delivered)
            await asyncio.to_thread(scoring.wait, 10.0)
            await gateway.abort()

        asyncio.run(run())
        assert scoring.is_set()
        assert loop_errors == []
        assert not scorers[0].is_alive()
        assert not multiprocessing.active_children()
        assert verdicts == []  # the aborted batch's result was dropped

    def test_result_after_the_loop_closed_is_dropped(
        self, trained_detectors, test_record
    ):
        """A gateway whose loop ends without shutdown: the batch still
        scoring then finds the loop closed, and the scorer thread drops
        the result instead of raising."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        scoring, release, scored = (threading.Event() for _ in range(3))

        class BlockedBackend(InProcessBackend):
            def score(self, key, windows):
                scoring.set()
                release.wait(10.0)
                try:
                    return super().score(key, windows)
                finally:
                    scored.set()

        gateway = IngestionGateway(
            detector, backend=BlockedBackend({detector.version.value: detector})
        )

        async def run():
            gateway.start()
            for delivered in _deliveries(test_record)[:2]:
                gateway.submit("w", delivered)
            await asyncio.to_thread(scoring.wait, 10.0)

        asyncio.run(run())
        scorer = gateway._scorer
        release.set()
        assert scored.wait(10.0)
        gateway._jobs.put(None)  # what shutdown() would have sent
        scorer.join(10.0)
        assert not scorer.is_alive()

    def test_backend_error_surfaces_from_shutdown(self, trained_detectors, test_record):
        """An exception other than ``ScoringUnavailable`` is a bug, not a
        bad batch: it ends the batcher and ``shutdown()`` raises it, with
        the scorer thread stopped all the same."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]

        class BrokenBackend(InProcessBackend):
            def score(self, key, windows):
                raise KeyError("no such tier")

        gateway = IngestionGateway(
            detector, backend=BrokenBackend({detector.version.value: detector})
        )
        scorers = []

        async def run():
            gateway.start()
            scorers.append(gateway._scorer)
            for delivered in _deliveries(test_record)[:2]:
                gateway.submit("w", delivered)
            with pytest.raises(KeyError, match="no such tier"):
                await gateway.shutdown()

        asyncio.run(run())
        assert not scorers[0].is_alive()

    def test_on_verdict_error_propagates(self, trained_detectors, test_record):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]

        def sink(verdict):
            raise ValueError("sink is down")

        gateway = IngestionGateway(detector, on_verdict=sink)
        with pytest.raises(ValueError, match="sink is down"):
            asyncio.run(_drive(gateway, {"w": _deliveries(test_record)[:4]}))
        assert gateway._scorer is None

    def test_shutdown_returns_after_the_batcher_died_on_a_full_queue(
        self, trained_detectors, test_record
    ):
        """A raising ``on_verdict`` ends the batcher, then three more
        windows fill the two-window queue: nothing will ever take the
        stop marker off it.  ``shutdown()`` must still return, raising
        the batcher's exception, with the scorer thread and the child
        stopped."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        backend = SupervisedScoringBackend(
            {detector.version.value: detector}, **_FAST_WATCHDOG
        )

        def sink(verdict):
            raise ValueError("sink is down")

        gateway = IngestionGateway(
            detector, backend=backend, queue_windows=2, on_verdict=sink
        )
        deliveries = _deliveries(test_record)
        scorers = []

        async def run():
            gateway.start()
            scorers.append(gateway._scorer)
            for delivered in deliveries[:2]:
                gateway.submit("w", delivered)
            deadline = time.monotonic() + 10.0
            while not gateway._batcher_task.done() and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert gateway._batcher_task.done()
            for delivered in deliveries[2:8]:
                gateway.submit("w", delivered)
            assert gateway._queue.full()
            with pytest.raises(ValueError, match="sink is down"):
                await asyncio.wait_for(gateway.shutdown(), 3.0)

        asyncio.run(run())
        assert not scorers[0].is_alive()
        assert not multiprocessing.active_children()

    def test_validation(self, trained_detectors):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        with pytest.raises(ValueError):
            IngestionGateway(detector, batch_size=0)
        with pytest.raises(ValueError):
            IngestionGateway(detector, queue_windows=0)
        with pytest.raises(ValueError):
            IngestionGateway(detector, max_inflight_per_session=0)
        with pytest.raises(ValueError, match="quality_gate"):
            IngestionGateway(detector, degradation=DegradationController())
