"""Shared benchmark helpers.

The paper-study benches (Tables II/III, Fig. 3, ablations, robustness,
universal model) are thin: the :func:`orchestrate` fixture runs a
registered study once per session through the orchestrator -- always
the full protocol, so its reports land in ``benchmarks/results/`` exactly
as ``repro orchestrate`` writes them -- and the bench asserts the
paper's qualitative shape on the decoded results.

Other benches time one call with :func:`run_once` (a one-shot
measurement, not a statistical microbenchmark) and save their own text
with ``save_result``.

Every orchestrated unit and every :func:`run_once` measurement that
names a ``study`` becomes a :class:`UnitOutcome`; at session end the
same builder the orchestrator uses folds them into a ``BENCH_<stamp>
.json`` perf trajectory, which is what the CI regression gate
(``repro bench-gate``) consumes.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments.orchestrator import Orchestrator, StudyRun, UnitOutcome
from repro.experiments.trajectory import build_trajectory, write_trajectory

RESULTS_DIR = Path(__file__).parent / "results"


def results_dir() -> Path:
    """Where rendered tables and the trajectory land.

    ``REPRO_BENCH_RESULTS`` overrides the default ``benchmarks/results``
    -- the trajectory regression test points it at a tmp dir so a real
    bench session can be asserted against without touching the repo's
    committed results.
    """
    override = os.environ.get("REPRO_BENCH_RESULTS")
    return Path(override) if override else RESULTS_DIR


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
def save_result():
    """Persist a rendered experiment table under benchmarks/results/."""

    def _save(name: str, text: str) -> None:
        out = results_dir()
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{name}.txt"
        path.write_text(text + "\n")
        # Also echo for -s runs / the captured log.
        print(f"\n{text}\n[saved to {path}]")

    return _save


#: The session's measured units, per study, in measurement order.
_UNITS: dict[str, list[UnitOutcome]] = {}


@pytest.fixture(scope="session")
def orchestrate(tmp_path_factory, jobs):
    """Run a registered study (once per session) and return its StudyRun.

    Checkpoints go to a session temp dir, so every session recomputes;
    reports go to the results directory.
    """
    orchestrator = Orchestrator(
        jobs=jobs,
        checkpoint_dir=tmp_path_factory.mktemp("checkpoints"),
        results_dir=results_dir(),
    )
    runs: dict[str, StudyRun] = {}

    def _run(name: str) -> StudyRun:
        if name not in runs:
            runs[name] = orchestrator.run_study(name)
            _UNITS.setdefault(name, []).extend(runs[name].units)
        return runs[name]

    return _run


def run_once(benchmark, fn, study: str | None = None, unit: str | None = None,
             sample=None):
    """Run a one-shot experiment under pytest-benchmark's timer.

    Naming a ``study`` (and optionally a ``unit`` within it) records the
    wall-clock as a :class:`UnitOutcome` of the session's trajectory.
    ``sample`` maps the run's result to its ``n_windows`` / ``p99_ms``;
    any further fields (e.g. a measured ``speedup``) ride along into the
    unit's ``units_detail`` entry.
    """
    started = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
    wall_s = time.perf_counter() - started
    if study is not None:
        extra = dict(sample(result)) if sample is not None else {}
        _UNITS.setdefault(study, []).append(
            UnitOutcome(
                name=unit or study,
                wall_s=wall_s,
                n_windows=int(extra.pop("n_windows", 0)),
                p99_ms=float(extra.pop("p99_ms", 0.0)),
                extra=extra,
            )
        )
    return result


def pytest_sessionfinish(session, exitstatus):
    """Persist the session's measured units as a BENCH_<stamp>.json record."""
    if not _UNITS:
        return
    record = build_trajectory(
        [StudyRun(name, tuple(units)) for name, units in _UNITS.items()],
        label="bench",
        quick=bool(session.config.getoption("--quick")),
        jobs=int(session.config.getoption("--jobs")),
    )
    _UNITS.clear()
    path = write_trajectory(record, results_dir())
    print(f"\nperf trajectory: {path}")
