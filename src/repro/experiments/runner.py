"""Parallel cohort execution.

The paper's protocol is embarrassingly parallel across subjects: each
:func:`~repro.experiments.pipeline.run_subject` call trains and evaluates
one (subject, version) pair independently.  :class:`CohortRunner` fans
those calls out over a ``ProcessPoolExecutor`` while keeping the serial
path (``jobs=1``) bit-identical to calling ``run_subject`` in a loop:

* **Deterministic ordering** -- results always come back in cohort order
  regardless of which worker finishes first.
* **Per-subject error capture** -- one failing subject yields a
  :class:`CohortOutcome` with a structured :class:`TaskFaultReport`
  instead of killing the whole cohort; a study that needs every subject
  raises on it through :func:`require_results`.
* **Per-worker caching** -- each worker process keeps its dataset and the
  process-local :data:`~repro.experiments.cache.EXPERIMENT_CACHE`, so a
  worker that handles several versions of the same subject trains from
  cached records.
* **Records realized once, inherited by fork** -- before a pool starts,
  the parent realizes the record working set of the run's subjects into
  its experiment cache; the pool's workers are forked after that and
  inherit those records copy-on-write instead of re-synthesizing them.
  On a host without fork, each worker synthesizes its own.
* **Broken-pool containment** -- a crashed worker (``BrokenProcessPool``)
  kills the whole pool.  Results that finished before it died are kept,
  the run's other tasks are faulted as ``broken-pool`` (the culprit
  cannot be told apart from its pool-mates), and the next
  ``run_version`` starts a fresh pool.

The parallel path strips the non-picklable ``runner`` handle (the live
simulated-Amulet harness) from results before they cross the process
boundary; the reports it produced travel fine.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.versions import DetectorVersion
from repro.experiments.pipeline import (
    ExperimentConfig,
    SubjectRunResult,
    make_dataset,
    realize_cohort_records,
    run_subject,
)
from repro.signals.dataset import SyntheticFantasia

__all__ = [
    "CohortOutcome",
    "CohortRunner",
    "TaskFaultReport",
    "effective_workers",
    "require_results",
]


def effective_workers(jobs: int) -> int:
    """Clamp a requested worker count to the CPUs actually available.

    The cohort tasks are CPU-bound; oversubscribing a small container
    only adds scheduling churn and duplicates worker-local caches across
    processes that then time-slice one core.
    """
    available = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    return max(1, min(int(jobs), available))


@dataclass(frozen=True)
class TaskFaultReport:
    """Structured account of why one (subject, version) task failed.

    ``kind`` distinguishes the failure avenue:

    - ``"exception"`` -- the task ran and raised (captured in-worker);
    - ``"broken-pool"`` -- a worker process died (crash, OOM-kill)
      before this task returned a result.

    ``attempts`` counts every submission of the task, including the
    failing one.
    """

    kind: str  # "exception" | "broken-pool"
    error_type: str
    message: str
    attempts: int

    def __post_init__(self) -> None:
        if self.kind not in ("exception", "broken-pool"):
            raise ValueError(f"unknown fault kind: {self.kind!r}")

    @property
    def error(self) -> str:
        """The legacy ``"TypeName: message"`` rendering."""
        return f"{self.error_type}: {self.message}"

    def describe(self) -> str:
        """One human-readable line for logs and error messages."""
        return (
            f"[{self.kind}] {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


@dataclass(frozen=True)
class CohortOutcome:
    """One (subject, version) cell of a cohort run.

    Exactly one of ``result`` / ``fault`` is set; ``error`` keeps the
    historical ``"TypeName: message"`` string rendering of the fault.
    """

    subject_id: str
    version: DetectorVersion
    result: SubjectRunResult | None
    error: str | None = None
    fault: TaskFaultReport | None = None

    @property
    def ok(self) -> bool:
        return self.fault is None and self.error is None


def require_results(outcomes: Sequence[CohortOutcome]) -> list[SubjectRunResult]:
    """Every outcome's result, or ``RuntimeError`` on the first failure.

    A cohort mean over the subjects that happened to survive is not the
    protocol's number, so the studies fail instead of averaging it.
    """
    for outcome in outcomes:
        if not outcome.ok:
            detail = outcome.fault.describe() if outcome.fault else outcome.error
            raise RuntimeError(
                f"subject {outcome.subject_id} ({outcome.version.value}) "
                f"failed: {detail}"
            )
    return [outcome.result for outcome in outcomes]


#: Per-worker-process dataset cache, keyed by the dataset knobs of the
#: config.  Re-synthesizing cohort parameters per task would be cheap but
#: pointless; records themselves are cached by the pipeline layer.
_WORKER_DATASETS: dict[tuple, SyntheticFantasia] = {}


def _worker_dataset(config: ExperimentConfig) -> SyntheticFantasia:
    key = (config.n_subjects, config.seed, config.sample_rate)
    dataset = _WORKER_DATASETS.get(key)
    if dataset is None:
        # Keep only the current config: long-lived workers that serve
        # sweeps with varying dataset knobs otherwise accumulate one
        # cohort (and its realized records, via references) per config
        # for the life of the process.
        _WORKER_DATASETS.clear()
        dataset = _WORKER_DATASETS[key] = make_dataset(config)
    return dataset


def _run_subject_task(
    config: ExperimentConfig,
    subject_index: int,
    version_name: str,
    with_device: bool,
) -> tuple[SubjectRunResult | None, tuple[str, str] | None]:
    """Top-level (picklable) per-subject task with error capture.

    Errors come back as ``(type_name, message)`` so the parent can build
    a structured fault report.
    """
    try:
        dataset = _worker_dataset(config)
        result = run_subject(
            dataset,
            dataset.subjects[subject_index],
            version_name,
            config,
            with_device=with_device,
        )
        # The live Amulet harness does not pickle; its reports already do.
        return replace(result, runner=None), None
    except Exception as exc:  # noqa: BLE001 -- the whole point is capture
        return None, (type(exc).__name__, str(exc))


def _exception_fault(error_type: str, message: str) -> TaskFaultReport:
    return TaskFaultReport(
        kind="exception", error_type=error_type, message=message, attempts=1
    )


class CohortRunner:
    """Fan a cohort of ``run_subject`` calls over worker processes.

    Parameters
    ----------
    config:
        The protocol configuration; defaults to the paper's.
    jobs:
        Worker process count.  ``jobs=1`` runs serially in-process and is
        bit-identical to a plain ``run_subject`` loop (it also keeps the
        live ``runner`` handle on each result, which parallel runs must
        strip for pickling).
    with_device:
        Forwarded to ``run_subject``: also deploy on the simulated Amulet.

    Each task runs once: a task that raises comes back as an
    ``"exception"`` fault, and a worker crash faults every task of that
    run that had not finished as ``"broken-pool"``.

    A parallel runner keeps its worker pool alive across ``run_version``
    calls (pool start-up costs more than a quick cohort); use it as a
    context manager, or call :meth:`close`, to release the workers.  A
    pool that broke is discarded and the next run builds a fresh one.
    The parent realizes the run's records just before it starts a pool,
    so the forked workers find them in their inherited cache.  A pool
    that already exists is reused as it is: its workers synthesize any
    record of a subject they were not forked with.  Results are
    bit-identical either way.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        jobs: int = 1,
        with_device: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.config = config or ExperimentConfig()
        self.jobs = int(jobs)
        self.with_device = bool(with_device)
        self._pool: ProcessPoolExecutor | None = None

    @property
    def dataset(self) -> SyntheticFantasia:
        # Goes through the worker memo on purpose: fork-started workers
        # inherit the already-built dataset instead of rebuilding it.
        return _worker_dataset(self.config)

    def close(self) -> None:
        """Shut down the worker pool."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CohortRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self, indices: list[int]) -> ProcessPoolExecutor:
        """One pool reused across run_version calls (pools are expensive).

        A new pool's workers fork at its first submit, after the parent
        has realized the records of ``indices``, so they inherit them.
        """
        if self._pool is None:
            realize_cohort_records(self.config, dataset=self.dataset, subjects=indices)
            context = (
                multiprocessing.get_context("fork")
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=effective_workers(self.jobs), mp_context=context
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Terminate the pool's workers and forget it.

        A plain ``shutdown`` joins the workers; terminating them first
        guarantees the join returns whatever state a worker is in.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)

    def run_version(
        self,
        version: DetectorVersion | str,
        subjects: list[int] | None = None,
    ) -> list[CohortOutcome]:
        """Run one detector version over the cohort (or a subject subset)."""
        if isinstance(version, str):
            version = DetectorVersion.from_name(version)
        indices = (
            list(range(len(self.dataset.subjects)))
            if subjects is None
            else list(subjects)
        )
        tasks = [(index, version) for index in indices]
        return self._run_tasks(tasks)

    def run(
        self,
        versions: tuple[DetectorVersion | str, ...] = tuple(DetectorVersion),
        subjects: list[int] | None = None,
    ) -> list[CohortOutcome]:
        """Run several versions; outcomes ordered version-major."""
        outcomes: list[CohortOutcome] = []
        for version in versions:
            outcomes.extend(self.run_version(version, subjects=subjects))
        return outcomes

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------

    def _run_tasks(
        self, tasks: list[tuple[int, DetectorVersion]]
    ) -> list[CohortOutcome]:
        if self.jobs == 1 or len(tasks) <= 1:
            pairs = [self._run_serial(index, version) for index, version in tasks]
        else:
            pairs = self._run_parallel(tasks)
        return [
            CohortOutcome(
                subject_id=self.dataset.subjects[index].subject_id,
                version=version,
                result=result,
                error=None if fault is None else fault.error,
                fault=fault,
            )
            for (index, version), (result, fault) in zip(tasks, pairs)
        ]

    def _run_serial(
        self, subject_index: int, version: DetectorVersion
    ) -> tuple[SubjectRunResult | None, TaskFaultReport | None]:
        """In-process execution; keeps the live ``runner`` handle."""
        try:
            result = run_subject(
                self.dataset,
                self.dataset.subjects[subject_index],
                version,
                self.config,
                with_device=self.with_device,
            )
        except Exception as exc:  # noqa: BLE001 -- capture is the point
            return None, _exception_fault(type(exc).__name__, str(exc))
        return result, None

    def _run_parallel(
        self, tasks: list[tuple[int, DetectorVersion]]
    ) -> list[tuple[SubjectRunResult | None, TaskFaultReport | None]]:
        """Submit every task to the pool at once; collect in cohort order."""
        pool = self._ensure_pool([index for index, _ in tasks])
        futures = [
            pool.submit(
                _run_subject_task, self.config, index, version.value, self.with_device
            )
            for index, version in tasks
        ]
        out: list[tuple[SubjectRunResult | None, TaskFaultReport | None]] = []
        crash: TaskFaultReport | None = None
        for future in futures:
            # Once the pool is dead only finished futures are read: a
            # result that landed before the crash is still good.
            if crash is not None and (future.cancelled() or not future.done()):
                out.append((None, crash))
                continue
            try:
                result, error = future.result()
            except BrokenExecutor as exc:
                if crash is None:
                    self._kill_pool()
                    crash = TaskFaultReport(
                        kind="broken-pool",
                        error_type="BrokenProcessPool",
                        message=str(exc) or "worker process died abruptly",
                        attempts=1,
                    )
                out.append((None, crash))
                continue
            out.append(
                (result, None) if error is None else (None, _exception_fault(*error))
            )
        return out
