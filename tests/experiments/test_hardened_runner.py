"""Fault containment of the cohort runner.

Worker crashes are injected by monkeypatching
``repro.experiments.runner.run_subject`` *before* the pool starts: the
runner's pools fork, so the children inherit the patched module.  The
parent must survive with structured fault reports for the casualties.
"""

from __future__ import annotations

import os

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.runner import CohortRunner, TaskFaultReport


@pytest.fixture(scope="module")
def config(quick_config):
    return quick_config


class TestFaultReport:
    def test_error_string_keeps_legacy_format(self):
        report = TaskFaultReport(
            kind="exception", error_type="RuntimeError", message="boom", attempts=2
        )
        assert report.error == "RuntimeError: boom"
        assert "[exception]" in report.describe()
        assert "2 attempts" in report.describe()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TaskFaultReport(
                kind="cosmic-ray", error_type="X", message="m", attempts=1
            )


class TestWorkerCrash:
    def test_crash_without_retries_faults_as_broken_pool(
        self, config, monkeypatch, tmp_path
    ):
        """A broken pool costs its tasks their only attempt: the undone
        ones surface as structured broken-pool faults, and the parent
        survives."""
        sentinel = tmp_path / "crashed-once"
        real = runner_module.run_subject

        def crash_once(dataset, subject, version, cfg, with_device):
            if subject is dataset.subjects[0] and not sentinel.exists():
                sentinel.write_text("crashed")
                os._exit(17)
            return real(dataset, subject, version, cfg, with_device=with_device)

        monkeypatch.setattr(runner_module, "run_subject", crash_once)
        with CohortRunner(config=config, jobs=2, with_device=False) as runner:
            outcomes = runner.run_version("reduced", subjects=[0, 1])
        assert not outcomes[0].ok  # the crashed subject is reported
        for outcome in outcomes:
            if outcome.ok:
                continue
            assert outcome.fault.kind == "broken-pool"
            assert outcome.fault.attempts == 1
            assert outcome.error.startswith("BrokenProcessPool")
            assert outcome.result is None
