"""Tests for the paced fleet sender and the gateway-bench CLI."""

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.versions import DetectorVersion
from repro.gateway import (
    IngestionGateway,
    PacedLoad,
    build_fleet,
    run_gateway_load,
    train_serving_detectors,
)
from repro.gateway.loadgen import PERIOD_S
from repro.signals.quality import SignalQualityIndex

REPO_ROOT = Path(__file__).resolve().parents[2]
STALL_S = 0.2


@pytest.fixture(scope="module")
def records(dataset):
    """Two 21 s recordings: seven windows per wearer."""
    return [dataset.record(s, 21.0, purpose="test") for s in dataset.subjects[:2]]


class TestRunGatewayLoad:
    def test_small_fleet_accounting(self):
        report = run_gateway_load(
            n_wearers=6, stream_s=12.0, batch_size=8, loss_probability=0.1,
            seed=11, period_s=0.0,
        )
        stats = report.stats
        assert stats.sessions_started == 6
        assert report.leaked_sessions == 0
        assert stats.sessions_active == 0
        assert report.windows_sent == 6 * 4  # 12 s = 4 windows each
        # Conservation: every sent window got a disposition (windows
        # whose both halves the channel dropped are counted sender-side).
        assert (
            stats.verdicts
            + stats.windows_shed
            + stats.incomplete_windows
            + report.windows_vanished
            == report.windows_sent
        )
        assert stats.verdicts > 0
        # 10% packet loss must surface as incompletes, never vanish.
        assert report.packets_dropped > 0
        assert stats.incomplete_windows > 0
        assert not report.interrupted
        # perf_counter latencies are positive and ordered.
        assert 0.0 < report.p50_latency_s <= report.p99_latency_s
        assert report.windows_per_s > 0

    def test_degradation_fleet_runs(self):
        report = run_gateway_load(
            n_wearers=4, stream_s=9.0, batch_size=8, loss_probability=0.0,
            with_degradation=True, seed=5, period_s=0.0,
        )
        assert report.leaked_sessions == 0
        assert report.stats.verdicts == report.windows_sent

    def test_stop_event_interrupts_cleanly(self):
        data, fitted = train_serving_detectors(versions=("simplified",), seed=9)
        detector = fitted[DetectorVersion.SIMPLIFIED]
        records = [data.record(data.subjects[0], 60.0, purpose="test")]

        async def run():
            gateway = IngestionGateway(detector, batch_size=8)
            stop = asyncio.Event()

            async def tripwire():
                await asyncio.sleep(0.1)
                stop.set()

            task = asyncio.get_running_loop().create_task(tripwire())
            # 8 wearers x 20 windows, one window each per 0.05 s: the stop
            # lands with every wearer in the middle of its stream.
            report = await PacedLoad(fleet).run(gateway, stop)
            await task
            return report

        fleet = build_fleet(records, n_wearers=8, period_s=0.05)
        report = asyncio.run(run())
        assert report.interrupted
        assert 0 < report.windows_sent < len(fleet.due_s)
        assert report.leaked_sessions == 0
        # Whatever was sent before the stop is still fully accounted.
        stats = report.stats
        assert (
            stats.verdicts
            + stats.windows_shed
            + stats.incomplete_windows
            + report.windows_vanished
            == report.windows_sent
        )

    def test_stop_ends_the_wait_for_the_next_window(self, trained_detectors, records):
        """At real time a wearer's next window is seconds away; a stop
        set meanwhile ends the run at once, not when that window is due."""
        fleet = build_fleet(records, n_wearers=1, period_s=PERIOD_S)

        async def run():
            gateway = IngestionGateway(trained_detectors[DetectorVersion.ORIGINAL])
            stop = asyncio.Event()
            asyncio.get_running_loop().call_later(0.05 + fleet.due_s[0], stop.set)
            return await PacedLoad(fleet).run(gateway, stop)

        started = time.perf_counter()
        report = asyncio.run(run())
        assert report.interrupted and report.windows_sent == 1
        assert time.perf_counter() - started < fleet.due_s[0] + 1.0
        assert report.conservation_ok

    def test_validation(self, records):
        with pytest.raises(ValueError):
            build_fleet([], n_wearers=1)
        with pytest.raises(ValueError):
            build_fleet(records, n_wearers=0)
        with pytest.raises(ValueError):
            build_fleet(records, n_wearers=1, period_s=-1.0)


class StallOnce:
    """Quality gate that blocks the event loop once, on its n-th window."""

    def __init__(self, at_call: int) -> None:
        self.inner = SignalQualityIndex()
        self.at_call = at_call
        self.calls = 0
        self.stalled: tuple[float, float] | None = None

    def assess(self, window):
        self.calls += 1
        if self.calls == self.at_call:
            began = time.perf_counter()
            time.sleep(STALL_S)
            self.stalled = (began, time.perf_counter())
        return self.inner.assess(window)


class TestPacedLoad:
    def test_stall_is_charged_to_windows_due_during_it(
        self, trained_detectors, records
    ):
        """No coordinated omission: latency runs from the due time, so a
        loop stall that holds sends back shows in every window due
        during it, and in the sender's lateness."""
        # 64 wearers sending one window every 0.3 s each, ~213 windows/s.
        fleet = build_fleet(records, n_wearers=64, seed=3, period_s=0.3)
        load = PacedLoad(fleet)
        gate = StallOnce(at_call=100)
        gateway = IngestionGateway(
            trained_detectors[DetectorVersion.ORIGINAL],
            quality_gate=gate,
            on_verdict=load.on_verdict,
        )
        report = asyncio.run(load.run(gateway))
        assert report.conservation_ok and report.stats.verdicts == len(fleet.due_s)
        assert gate.stalled is not None
        began, ended = gate.stalled
        due = load.t0 + fleet.due_s
        during = np.flatnonzero((due > began) & (due < ended - 0.01))
        assert during.size >= 10
        latency = load.latencies_s()[during]
        # Every window due inside the stall waits at least until it ends.
        assert np.all(latency >= (ended - due[during]) - 1e-6)
        assert latency.max() >= STALL_S * 0.8
        # The sender records how late it ran.
        assert load.lateness_s().max() >= STALL_S * 0.8
        assert report.max_lateness_s >= STALL_S * 0.8

    def test_sender_sleeps_while_nothing_is_due(self, trained_detectors, records):
        """A sparse schedule costs the loop thread almost no CPU: the
        sender sleeps until the next due time instead of polling."""
        fleet = build_fleet(records, n_wearers=2, period_s=0.4).slice(0, 3)
        load = PacedLoad(fleet)
        gateway = IngestionGateway(
            trained_detectors[DetectorVersion.ORIGINAL],
            quality_gate=SignalQualityIndex(),
            on_verdict=load.on_verdict,
        )
        cpu0, wall0 = time.thread_time(), time.perf_counter()
        report = asyncio.run(load.run(gateway))
        cpu_s, wall_s = time.thread_time() - cpu0, time.perf_counter() - wall0
        assert report.windows_sent == 6 and report.stats.verdicts == 6
        assert report.on_schedule
        assert wall_s >= 0.4
        assert cpu_s < 0.1

    def test_fleet_is_a_function_of_the_seed(self, records):
        def outcome(fleet):
            return [d is None for pair in fleet.deliveries for d in pair]

        a, b, c = (
            build_fleet(records, 16, loss_probability=0.3, seed=s)
            for s in (7, 7, 8)
        )
        assert np.array_equal(a.due_s, b.due_s)
        assert np.array_equal(a.wearer, b.wearer)
        assert outcome(a) == outcome(b)
        assert not np.array_equal(a.due_s, c.due_s)
        assert outcome(a) != outcome(c)

    def test_fleet_schedule(self, records):
        """Real time: one window per wearer per period, each wearer's
        windows in order.  Unpaced: all due at once, round-robin."""
        paced = build_fleet(records, 4, period_s=3.0)
        for w in range(4):
            mine = paced.wearer == w
            assert list(paced.sequence[mine]) == list(range(7))
            assert np.allclose(np.diff(paced.due_s[mine]), 3.0)
        assert np.all(np.diff(paced.due_s) >= 0) and paced.due_s.max() < 21.0
        unpaced = build_fleet(records, 4, period_s=0.0)
        assert not unpaced.due_s.any()
        assert list(unpaced.wearer[:8]) == [0, 1, 2, 3] * 2
        assert list(unpaced.sequence[:8]) == [0] * 4 + [1] * 4
        assert list(unpaced.slice(5, 7).sequence) == [5] * 4 + [6] * 4


@pytest.mark.skipif(
    not hasattr(signal, "SIGINT") or os.name == "nt",
    reason="POSIX signal delivery required",
)
class TestGatewayBenchCLI:
    def test_sigint_shuts_down_cleanly(self):
        """SIGINT mid-run must drain, finalize every session, print the
        report, and exit 0 -- the CI smoke contract."""
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "gateway-bench",
                "--wearers", "16", "--stream-s", "600", "--seed", "3",
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(3.0)  # let training finish and streaming start
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, stderr
        assert "leaked sessions    0" in stdout
        assert "verdict latency" in stdout
