"""Tests for the wearer fleet simulator and the gateway-bench CLI."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.versions import DetectorVersion
from repro.gateway import (
    IngestionGateway,
    run_gateway_load,
    train_serving_detectors,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRunGatewayLoad:
    def test_small_fleet_accounting(self):
        report = run_gateway_load(
            n_wearers=6, stream_s=12.0, batch_size=8, loss_probability=0.1,
            seed=11,
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
            with_degradation=True, seed=5,
        )
        assert report.leaked_sessions == 0
        assert report.stats.verdicts == report.windows_sent

    def test_stop_event_interrupts_cleanly(self):
        import asyncio

        from repro.gateway import run_fleet

        data, fitted = train_serving_detectors(versions=("simplified",), seed=9)
        detector = fitted[DetectorVersion.SIMPLIFIED]
        records = [data.record(data.subjects[0], 60.0, purpose="test")]

        async def run():
            gateway = IngestionGateway(detector, batch_size=8)
            stop = asyncio.Event()

            async def tripwire():
                await asyncio.sleep(0.01)
                stop.set()

            task = asyncio.get_running_loop().create_task(tripwire())
            report = await run_fleet(
                gateway, records, n_wearers=8, stop=stop
            )
            await task
            return report

        report = asyncio.run(run())
        assert report.interrupted
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

    def test_validation(self):
        import asyncio

        from repro.gateway import run_fleet

        data, fitted = train_serving_detectors(versions=("simplified",), seed=9)
        detector = fitted[DetectorVersion.SIMPLIFIED]
        gateway = IngestionGateway(detector)
        with pytest.raises(ValueError):
            asyncio.run(run_fleet(gateway, [], n_wearers=1))


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
