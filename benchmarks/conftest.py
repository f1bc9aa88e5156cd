"""Shared benchmark helpers.

The study benches (the paper's Tables II/III, Fig. 3, ablations,
robustness and universal model, plus adaptive security, chaos, the
gateway and the native core) are thin: the
:func:`orchestrate` fixture runs a registered study once per session
through the orchestrator -- always the full protocol, so its reports
land in ``benchmarks/results/`` exactly as ``repro orchestrate`` writes
them -- and the bench asserts on the decoded results.  The orchestrator
is the only writer of reports and perf trajectories; a bench session
writes no ``BENCH_*.json``.

The microbenchmarks (``bench_batch``, ``bench_chunked``, ``bench_micro``)
time their calls with pytest-benchmark directly.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.orchestrator import Orchestrator, StudyRun

def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="shrink benchmark workloads for CI smoke runs "
        "(shorter streams, looser-but-still-meaningful assertions)",
    )
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the cohort sweeps (1 = serial; "
        "results are identical at any value, only wall-clock changes)",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """True when the run is a CI smoke pass (``--quick``)."""
    return bool(request.config.getoption("--quick"))


@pytest.fixture(scope="session")
def jobs(request) -> int:
    """Worker count for the cohort-fanning benchmarks (``--jobs``)."""
    value = int(request.config.getoption("--jobs"))
    if value < 1:
        raise pytest.UsageError("--jobs must be >= 1")
    return value


@pytest.fixture(scope="session")
def orchestrate(tmp_path_factory, jobs):
    """Run a registered study (once per session) and return its StudyRun.

    Checkpoints go to a session temp dir, so every session recomputes;
    reports go to ``benchmarks/results`` or, so a session can run
    without rewriting the committed reports, ``$REPRO_BENCH_RESULTS``.
    """
    orchestrator = Orchestrator(
        jobs=jobs,
        checkpoint_dir=tmp_path_factory.mktemp("checkpoints"),
        results_dir=os.environ.get("REPRO_BENCH_RESULTS")
        or Path(__file__).parent / "results",
    )
    runs: dict[str, StudyRun] = {}

    def _run(name: str) -> StudyRun:
        if name not in runs:
            runs[name] = orchestrator.run_study(name)
        return runs[name]

    return _run
