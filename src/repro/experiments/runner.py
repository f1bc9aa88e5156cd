"""Parallel cohort execution, hardened against worker faults.

The paper's protocol is embarrassingly parallel across subjects: each
:func:`~repro.experiments.pipeline.run_subject` call trains and evaluates
one (subject, version) pair independently.  :class:`CohortRunner` fans
those calls out over a ``ProcessPoolExecutor`` while keeping the serial
path (``jobs=1``) bit-identical to calling ``run_subject`` in a loop:

* **Deterministic ordering** -- results always come back in cohort order
  regardless of which worker finishes first.
* **Per-subject error capture** -- one failing subject yields a
  :class:`CohortOutcome` with a structured :class:`TaskFaultReport`
  instead of killing the whole cohort.
* **Per-worker caching** -- each worker process keeps its dataset and the
  process-local :data:`~repro.experiments.cache.EXPERIMENT_CACHE`, so a
  worker that handles several versions of the same subject trains from
  cached records.
* **Zero-copy dataset plane** -- the parent realizes the cohort's record
  working set once and publishes it via
  :mod:`repro.experiments.dataplane`; workers attach shared-memory views
  instead of re-synthesizing recordings per process (``share_dataset``,
  on by default).

Hardening (deployment-grade behaviour under faulty workers):

* **Per-task timeouts** -- ``task_timeout_s`` bounds how long the runner
  waits for any one result; a hung worker is terminated rather than
  wedging the cohort.  Timeouts are terminal for the task that hung
  (deterministic tasks that hang once hang again), but never for its
  innocent pool-mates, which are requeued.
* **Bounded retry with jittered exponential backoff** -- ``max_retries``
  re-runs failed tasks, sleeping ``retry_backoff_s * 2**(attempt-1)``
  (capped, then jittered by ``retry_jitter`` through the shared
  :class:`~repro.core.backoff.JitteredBackoff` helper) between attempts,
  so simultaneous worker failures do not retry in lockstep.
* **Broken-pool recovery** -- a crashed worker (``BrokenProcessPool``)
  kills the pool; the runner rebuilds it once and requeues the undone
  tasks.  If the rebuilt pool breaks too, the remaining tasks fall back
  to plain in-process execution.

The parallel path strips the non-picklable ``runner`` handle (the live
simulated-Amulet harness) from results before they cross the process
boundary; the reports it produced travel fine.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace

from repro.core.backoff import JitteredBackoff
from repro.core.versions import DetectorVersion
from repro.experiments.cache import EXPERIMENT_CACHE, set_cache_budget
from repro.experiments.dataplane import (
    PUBLISH_ERRORS,
    DatasetPlane,
    PlaneManifest,
    realize_cohort_records,
    seed_worker_cache,
)
from repro.experiments.pipeline import (
    ExperimentConfig,
    SubjectRunResult,
    make_dataset,
    run_subject,
)
from repro.signals.dataset import SyntheticFantasia

__all__ = [
    "CohortOutcome",
    "CohortRunner",
    "TaskFaultReport",
    "effective_workers",
]

logger = logging.getLogger(__name__)


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
    - ``"timeout"`` -- no result within ``task_timeout_s``; the pool was
      terminated to unwedge the cohort;
    - ``"broken-pool"`` -- the worker process died (crash, OOM-kill)
      before returning a result.

    ``attempts`` counts every submission of the task, including the
    failing one.
    """

    kind: str  # "exception" | "timeout" | "broken-pool"
    error_type: str
    message: str
    attempts: int

    def __post_init__(self) -> None:
        if self.kind not in ("exception", "timeout", "broken-pool"):
            raise ValueError(f"unknown fault kind: {self.kind!r}")

    @property
    def error(self) -> str:
        """The legacy ``"TypeName: message"`` rendering."""
        return f"{self.error_type}: {self.message}"

    def describe(self) -> str:
        """One human-readable line for logs and CLI warnings."""
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
    chunk_size: int | None = None,
    cache_bytes: int | None = None,
    plane_manifest: PlaneManifest | None = None,
) -> tuple[SubjectRunResult | None, tuple[str, str] | None]:
    """Top-level (picklable) per-subject task with error capture.

    ``cache_bytes`` (when given) rebudgets the worker process's local
    experiment cache before the run -- each worker holds its own LRU.
    ``plane_manifest`` (when given) attaches the parent's published
    dataset plane and seeds this worker's cache with zero-copy record
    views, so the task trains and evaluates without re-synthesizing any
    recording.  Errors come back as ``(type_name, message)`` so the
    parent can build a structured fault report.
    """
    try:
        if cache_bytes is not None:
            set_cache_budget(cache_bytes)
        if plane_manifest is not None:
            seed_worker_cache(plane_manifest)
        dataset = _worker_dataset(config)
        result = run_subject(
            dataset,
            dataset.subjects[subject_index],
            version_name,
            config,
            with_device=with_device,
            chunk_size=chunk_size,
        )
        # The live Amulet harness does not pickle; its reports already do.
        return replace(result, runner=None), None
    except Exception as exc:  # noqa: BLE001 -- the whole point is capture
        return None, (type(exc).__name__, str(exc))


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
    chunk_size:
        Windows scored per chunk by the reference evaluation (``None`` =
        the detector default).  Bit-identical results at any size; only
        each worker's peak memory changes.
    cache_bytes:
        LRU budget for the experiment cache, in bytes.  ``None`` leaves
        the process-wide default untouched; a value is applied in the
        parent *and* in every worker process (workers keep process-local
        caches).
    task_timeout_s:
        Maximum seconds to wait for any one task's result (``None`` =
        wait forever, the historical behaviour).  On expiry the pool is
        terminated (a hung worker never unwedges on its own), the timed
        out task gets a ``"timeout"`` fault, and undone pool-mates are
        requeued on a fresh pool.
    max_retries:
        Re-submissions allowed per task after a failed attempt
        (exceptions and broken pools; timeouts are terminal).  0 disables
        retries -- with retries disabled and no timeout the runner is
        behaviourally identical to the unhardened one.
    retry_backoff_s:
        Base of the exponential backoff slept before each retry
        (``retry_backoff_s * 2**(attempt-1)``, capped at 30 s).
    retry_jitter:
        Fraction of each backoff delay eligible to be randomly
        subtracted (uniform in ``[raw * (1 - retry_jitter), raw]``), so
        workers that failed together do not retry in lockstep.  ``0``
        restores the exact deterministic schedule.
    backoff_seed:
        Seed of the jitter stream; identical seeds replay identical
        delay sequences.
    share_dataset:
        Publish the realized cohort records once into a shared-memory
        dataset plane (``.npz`` artifact where shared memory is
        unavailable) and have workers attach zero-copy views instead of
        re-synthesizing recordings per process (default).  ``False``
        restores the historical per-worker synthesis.  Results are
        bit-identical either way; only fan-out cost changes.

    A parallel runner keeps its worker pool alive across ``run_version``
    calls (pool start-up costs more than a quick cohort); use it as a
    context manager, or call :meth:`close`, to release the workers.  The
    dataset plane has the same lifetime: it is published lazily on the
    first parallel run, survives task timeouts and pool rebuilds (the
    rebuilt pool's workers re-attach it), and its segment is unlinked by
    :meth:`close`/context exit, by any exception unwinding a run
    (including ``KeyboardInterrupt``), or -- as a last resort -- when the
    runner is garbage collected or the interpreter exits.
    """

    #: Pool rebuilds allowed per ``run_version`` before the runner stops
    #: trusting process pools and finishes the cohort in-process.
    max_pool_rebuilds = 1

    #: Upper bound on any single backoff sleep, in seconds.
    max_backoff_s = 30.0

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        jobs: int = 1,
        with_device: bool = True,
        chunk_size: int | None = None,
        cache_bytes: int | None = None,
        task_timeout_s: float | None = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.5,
        retry_jitter: float = 0.5,
        backoff_seed: int = 0,
        share_dataset: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if cache_bytes is not None and cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if not 0.0 <= retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")
        self.config = config or ExperimentConfig()
        self.jobs = int(jobs)
        self.with_device = bool(with_device)
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self.cache_bytes = None if cache_bytes is None else int(cache_bytes)
        self.task_timeout_s = (
            None if task_timeout_s is None else float(task_timeout_s)
        )
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.retry_jitter = float(retry_jitter)
        self.backoff_seed = int(backoff_seed)
        self._backoff = JitteredBackoff(
            self.retry_backoff_s,
            cap_s=self.max_backoff_s,
            jitter=self.retry_jitter,
            seed=self.backoff_seed,
        )
        self.share_dataset = bool(share_dataset)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_rebuilds = 0
        self._plane: DatasetPlane | None = None
        self._plane_subjects: set[int] = set()
        self._plane_manifest: PlaneManifest | None = None

    @property
    def dataset(self) -> SyntheticFantasia:
        # Goes through the worker memo on purpose: fork-started workers
        # inherit the already-built dataset instead of rebuilding it.
        return _worker_dataset(self.config)

    @property
    def pool_rebuilds(self) -> int:
        """Pools rebuilt after hangs/crashes during the last run."""
        return self._pool_rebuilds

    @property
    def plane(self) -> DatasetPlane | None:
        """The live dataset plane (``None`` before the first parallel run)."""
        return self._plane

    def close(self) -> None:
        """Shut down the worker pool and unlink the dataset plane."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._cleanup_plane()

    def _cleanup_plane(self) -> None:
        """Unlink the published segment (idempotent; workers' mappings
        stay valid -- on Linux an attached segment survives unlinking)."""
        plane, self._plane = self._plane, None
        self._plane_manifest = None
        self._plane_subjects = set()
        if plane is not None:
            plane.unlink()

    def _ensure_plane(self, indices: list[int]) -> PlaneManifest | None:
        """Publish (or extend) the dataset plane covering ``indices``.

        The plane is reused across ``run_version`` calls as long as it
        covers the requested subjects; asking for new subjects republishes
        a segment covering the union (and unlinks the old one first).
        Publishing failures degrade to per-worker synthesis -- the plane
        is an optimization, never a correctness dependency -- but the
        degradation is *logged*: every worker quietly re-synthesizing the
        cohort is exactly the cost the plane exists to remove, so a run
        that silently fell back would be undiagnosable from its numbers.
        """
        if not self.share_dataset:
            return None
        needed = set(indices)
        if self._plane is not None and needed <= self._plane_subjects:
            return self._plane_manifest
        covered = needed | self._plane_subjects
        self._cleanup_plane()
        try:
            records = realize_cohort_records(
                self.config, dataset=self.dataset, subjects=sorted(covered)
            )
            self._plane = DatasetPlane.publish(records)
        except PUBLISH_ERRORS as exc:
            logger.warning(
                "dataset-plane publish failed; workers will re-synthesize "
                "the cohort per process: error=%s message=%r subjects=%d "
                "jobs=%d",
                type(exc).__name__,
                str(exc),
                len(covered),
                self.jobs,
            )
            self._plane = None
            return None
        self._plane_subjects = covered
        self._plane_manifest = self._plane.manifest
        return self._plane_manifest

    def __enter__(self) -> "CohortRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """One pool reused across run_version calls (pools are expensive)."""
        if self._pool is None:
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
        """Terminate the pool's workers (hung or crashed) and forget it.

        A plain ``shutdown`` would *join* a hung worker and wedge forever;
        terminating first guarantees the join returns.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)

    def _backoff_sleep(self, attempt: int) -> None:
        """Jittered exponential backoff before retry number ``attempt``.

        Delegates the delay schedule to the shared
        :class:`~repro.core.backoff.JitteredBackoff` (the gateway's
        scoring supervisor sleeps by the same rules), but sleeps through
        this module's ``time.sleep`` so tests can intercept it.  The
        knobs are re-synced per call because tests (and callers) may
        adjust ``max_backoff_s`` after construction.
        """
        if self.retry_backoff_s <= 0:
            return
        self._backoff.base_s = self.retry_backoff_s
        self._backoff.cap_s = self.max_backoff_s
        time.sleep(self._backoff.delay(attempt))

    def _retry_after_failure(self, attempts: int) -> bool:
        """Whether a task that has failed ``attempts`` times may retry.

        This is the *only* gate between a failure and its backoff sleep,
        so the exponential sleep can never be paid unless a retry
        actually follows: the final failed attempt returns ``False``
        without sleeping (a capped backoff before giving up would delay
        the fault report for nothing).  With ``retry_jitter=0`` the
        total sleep for ``max_retries=N`` is exactly ``sum(min(cap,
        base * 2**(k-1)) for k in 1..N)``; with jitter it is the seeded
        :class:`~repro.core.backoff.JitteredBackoff` sequence -- the
        regression tests assert both, per path.
        """
        if attempts > self.max_retries:
            return False
        self._backoff_sleep(attempts)
        return True

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
        if self.cache_bytes is not None:
            set_cache_budget(self.cache_bytes)
        self._pool_rebuilds = 0
        if self.jobs == 1 or len(tasks) <= 1:
            pairs = [
                self._run_serial_with_retries(index, version)
                for index, version in tasks
            ]
        else:
            self._ensure_plane([index for index, _ in tasks])
            try:
                pairs = self._run_parallel(tasks)
            except BaseException:
                # Guaranteed unlink on every abnormal exit -- including
                # KeyboardInterrupt -- before the exception propagates.
                self._cleanup_plane()
                raise
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

    def _submit(self, pool: ProcessPoolExecutor, task):
        index, version = task
        return pool.submit(
            _run_subject_task,
            self.config,
            index,
            version.value,
            self.with_device,
            self.chunk_size,
            self.cache_bytes,
            self._plane_manifest,
        )

    def _run_serial_with_retries(
        self, subject_index: int, version: DetectorVersion
    ) -> tuple[SubjectRunResult | None, TaskFaultReport | None]:
        """In-process execution with the same retry budget as workers.

        Keeps the live ``runner`` handle on results (nothing crosses a
        process boundary).  Timeouts are not enforceable in-process.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                result = run_subject(
                    self.dataset,
                    self.dataset.subjects[subject_index],
                    version,
                    self.config,
                    with_device=self.with_device,
                    chunk_size=self.chunk_size,
                )
                return result, None
            except Exception as exc:  # noqa: BLE001 -- capture is the point
                if self._retry_after_failure(attempts):
                    continue
                return None, TaskFaultReport(
                    kind="exception",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    attempts=attempts,
                )

    def _finish_in_process(
        self, task, attempts_so_far: int
    ) -> tuple[SubjectRunResult | None, TaskFaultReport | None]:
        """Last-resort avenue once process pools have proven unreliable.

        Runs the task in the parent, stripping the runner handle for
        parity with pool results.  Always grants at least one attempt,
        then honours whatever retry budget remains.
        """
        index, version = task
        attempts = attempts_so_far
        while True:
            attempts += 1
            result, error = _run_subject_task(
                self.config,
                index,
                version.value,
                self.with_device,
                self.chunk_size,
                self.cache_bytes,
            )
            if error is None:
                return result, None
            if self._retry_after_failure(attempts):
                continue
            return None, TaskFaultReport(
                kind="exception",
                error_type=error[0],
                message=error[1],
                attempts=attempts,
            )

    def _run_parallel(
        self, tasks: list[tuple[int, DetectorVersion]]
    ) -> list[tuple[SubjectRunResult | None, TaskFaultReport | None]]:
        n = len(tasks)
        out: list = [None] * n
        attempts = [0] * n
        pending = list(range(n))

        while pending:
            if self._pool_rebuilds > self.max_pool_rebuilds:
                # Pools have failed twice; stop trusting them.
                for i in pending:
                    out[i] = self._finish_in_process(tasks[i], attempts[i])
                break

            pool = self._ensure_pool()
            futures = {}
            for i in pending:
                attempts[i] += 1
                futures[i] = self._submit(pool, tasks[i])

            next_pending: list[int] = []
            kill_reason: str | None = None  # "timeout" | "broken"

            def settle(i: int, result, error) -> None:
                """Record a worker's return: success, retry queue, or fault."""
                if error is None:
                    out[i] = (result, None)
                elif attempts[i] <= self.max_retries:
                    next_pending.append(i)
                else:
                    out[i] = (
                        None,
                        TaskFaultReport(
                            kind="exception",
                            error_type=error[0],
                            message=error[1],
                            attempts=attempts[i],
                        ),
                    )

            def requeue_refund(i: int) -> None:
                """Requeue a casualty of a runner-initiated pool kill.

                The runner terminated the pool to unwedge a *different*
                task; this one never failed, so its submission is refunded
                rather than charged against its retry budget.
                """
                attempts[i] -= 1
                next_pending.append(i)

            def charge_or_fault(i: int, message: str) -> None:
                """Dispose of a task whose worker pool broke under it.

                With a crashed worker the culprit is unidentifiable, so
                every undone task is charged one attempt: retried within
                the ``max_retries`` budget, faulted as ``broken-pool``
                beyond it.  Run with ``max_retries >= 1`` to tolerate
                worker crashes without losing innocent pool-mates.
                """
                if attempts[i] <= self.max_retries:
                    next_pending.append(i)
                else:
                    out[i] = (
                        None,
                        TaskFaultReport(
                            kind="broken-pool",
                            error_type="BrokenProcessPool",
                            message=message,
                            attempts=attempts[i],
                        ),
                    )

            def timeout_fault(i: int) -> None:
                """Terminal fault for the task the runner timed out on."""
                out[i] = (
                    None,
                    TaskFaultReport(
                        kind="timeout",
                        error_type="TimeoutError",
                        message=(
                            f"no result within {self.task_timeout_s:g}s; "
                            "worker terminated"
                        ),
                        attempts=attempts[i],
                    ),
                )

            def dispose_casualty(i: int) -> None:
                """Requeue or fault a task orphaned by the pool's death."""
                if kill_reason == "timeout":
                    requeue_refund(i)
                else:
                    charge_or_fault(
                        i, "worker pool broke before the task completed"
                    )

            for i in pending:
                future = futures[i]
                if kill_reason is not None:
                    # The pool died collecting an earlier task.  Harvest
                    # results that finished before it died; requeue or
                    # fault the rest (never resubmit to the dead pool --
                    # retryable failures go to next round's fresh pool).
                    if future.done() and not future.cancelled():
                        try:
                            result, error = future.result(timeout=0)
                        except Exception:  # noqa: BLE001 -- died with pool
                            dispose_casualty(i)
                        else:
                            settle(i, result, error)
                    else:
                        dispose_casualty(i)
                    continue

                try:
                    result, error = future.result(timeout=self.task_timeout_s)
                except FutureTimeoutError:
                    kill_reason = "timeout"
                    self._kill_pool()
                    timeout_fault(i)
                    continue
                except BrokenExecutor as exc:
                    kill_reason = "broken"
                    self._kill_pool()
                    charge_or_fault(
                        i, str(exc) or "worker process died abruptly"
                    )
                    continue

                # The worker returned.  Retry captured exceptions inline on
                # the same pool (it is healthy -- the task itself failed).
                # _retry_after_failure sleeps only when the retry follows,
                # never after the final failed attempt.
                while error is not None and self._retry_after_failure(
                    attempts[i]
                ):
                    attempts[i] += 1
                    retry_future = self._submit(pool, tasks[i])
                    try:
                        result, error = retry_future.result(
                            timeout=self.task_timeout_s
                        )
                    except FutureTimeoutError:
                        kill_reason = "timeout"
                        self._kill_pool()
                        timeout_fault(i)
                        break
                    except BrokenExecutor as exc:
                        kill_reason = "broken"
                        self._kill_pool()
                        charge_or_fault(
                            i, str(exc) or "worker process died abruptly"
                        )
                        break
                else:
                    settle(i, result, error)

            if kill_reason is not None:
                self._pool_rebuilds += 1
            pending = next_pending

        return out


def clear_experiment_cache() -> None:
    """Drop the process-local experiment cache (counters reset too)."""
    EXPERIMENT_CACHE.clear()
