"""Tests of the benchmark's paced open-loop load generator.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.core.versions import DetectorVersion  # noqa: E402
from repro.gateway import IngestionGateway  # noqa: E402
from repro.signals.quality import SignalQualityIndex  # noqa: E402

from perfbench import serving  # noqa: E402

STALL_S = 0.2


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


@pytest.fixture(scope="module")
def detectors():
    _, fitted = serving.train_detectors([DetectorVersion.ORIGINAL], False, {})
    return fitted


def drive(detectors, fleet, gate):
    load = serving.PacedLoad(fleet)
    gateway = IngestionGateway(
        detectors["original"],
        quality_gate=gate,
        on_verdict=load.on_verdict,
    )
    asyncio.run(load.run(gateway))
    return load, gateway


def small_fleet(detectors, seed=3, seconds=2.0):
    from repro.signals.dataset import SyntheticFantasia

    data = SyntheticFantasia(n_subjects=serving.N_SUBJECTS, seed=serving.DETECTOR_SEED)
    # 64 wearers sending one window every 0.3 s each, ~213 windows/s.
    return serving.build_fleet(
        data, seed, seconds, artifact_share=0.0, n_wearers=64, period=0.3
    )


def test_stall_is_charged_to_windows_due_during_it(detectors):
    fleet = small_fleet(detectors)
    gate = StallOnce(at_call=100)
    load, _ = drive(detectors, fleet, gate)
    assert gate.stalled is not None
    began, ended = gate.stalled
    due = load.t0 + fleet.due_s
    during = np.flatnonzero((due > began) & (due < ended - 0.01))
    during = during[~np.isnan(load.verdict_at[during])]
    assert during.size >= 10
    latency = load.latencies_s()[during]
    # Every window due inside the stall waits at least until it ends ...
    assert np.all(latency >= (ended - due[during]) - 1e-6)
    assert latency.max() >= STALL_S * 0.8
    # ... and that wait sits before the gateway's enqueue, where its own
    # enqueue-to-verdict latency cannot see it.
    early = due[during] < began + STALL_S / 2
    hidden = latency[early] - load.queue_latency[during][early]
    assert early.any() and np.all(hidden >= STALL_S / 2 - 1e-3)
    # The sender records how late it ran.
    assert load.lateness_s().max() >= STALL_S * 0.8


def test_paced_run_passes_its_checks(detectors):
    fleet = small_fleet(detectors, seed=5, seconds=1.5)
    load, gateway = drive(detectors, fleet, SignalQualityIndex())
    deployment = serving.Deployment(detectors, fleet, backend=None)
    interval = serving.Interval(load, gateway, 0.0, None)
    assert serving.check(deployment, interval, seed=5) == []
    assert load.sent == len(fleet.due_s)
    assert load.goodput_wps() > 0


def test_fleet_is_a_function_of_the_seed(detectors):
    a, b, c = (small_fleet(detectors, seed=s) for s in (7, 7, 8))
    assert np.array_equal(a.due_s, b.due_s)
    assert np.array_equal(a.both_delivered, b.both_delivered)
    assert not np.array_equal(a.due_s, c.due_s)
