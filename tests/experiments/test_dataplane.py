"""What the retired dataset plane left behind: fan-out parity with no
``/dev/shm`` segment.

Cohort workers inherit the parent's realized records through fork, so a
parallel run must reproduce the serial reports and leave no segment with
the old plane's prefix behind (:func:`leaked_segments`).
"""

from __future__ import annotations

import pytest

from repro.experiments.dataplane import leaked_segments
from repro.experiments.runner import CohortRunner


@pytest.fixture(scope="module")
def config(quick_config):
    return quick_config


class TestRunnerPlane:
    def test_parallel_results_match_serial(self, config):
        with CohortRunner(config=config, jobs=1, with_device=False) as serial:
            base = serial.run_version("reduced", subjects=[0, 1])
        with CohortRunner(config=config, jobs=2, with_device=False) as runner:
            fanned = runner.run_version("reduced", subjects=[0, 1])
        for a, b in zip(base, fanned):
            assert a.ok and b.ok
            assert a.result.reference_report == b.result.reference_report
        assert leaked_segments() == []
