"""Zero-copy dataset plane: realize cohort records once, attach everywhere.

The cohort protocol is embarrassingly parallel, but its inputs are not
small: every (subject, version) task needs the subject's training and
test recordings plus a handful of donor recordings.  Before this module,
each :class:`~repro.experiments.runner.CohortRunner` worker process
re-synthesized every recording it touched from scratch -- the host-side
mirror image of the paper's problem of wasting cycles on a budgeted
device.

The plane fixes that with a publish/attach split:

* **Publish** (parent): realize the cohort's record working set once
  (through the experiment cache, so nothing is synthesized twice), then
  serialize every record's four arrays into a single
  ``multiprocessing.shared_memory`` segment.  When shared memory is
  unavailable (no ``/dev/shm``, exotic platforms, permission failures)
  the publish raises one of :data:`PUBLISH_ERRORS`; the
  :class:`~repro.experiments.runner.CohortRunner` then logs the cause
  and lets each worker synthesize its own records.
* **Attach** (workers): map the segment and rebuild each :class:`Record`
  as zero-copy NumPy views into it, then seed the worker's process-local
  :data:`~repro.experiments.cache.EXPERIMENT_CACHE` under the exact keys
  the pipeline's ``_record`` helper would use -- so ``run_subject``
  finds every recording already "synthesized".  Shared views are billed
  to the cache at a nominal cost: the bytes exist once machine-wide, not
  once per worker.

Cleanup guarantees
------------------

A published segment is unlinked exactly once, whichever exit path runs
first: explicit :meth:`DatasetPlane.unlink`/:meth:`~DatasetPlane.close`,
the owning runner's ``close()``/context exit, an exception unwinding a
cohort run (including ``KeyboardInterrupt``), garbage collection of the
plane, or interpreter shutdown (``weakref.finalize`` registers an atexit
hook).  Worker crashes and pool rebuilds never unlink: the rebuilt
pool's workers re-attach the same segment.  On Linux an attached mapping
survives unlinking, so workers stay valid even if the parent unlinks
while they still hold views.
"""

from __future__ import annotations

import os
import secrets
import time
import weakref
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.experiments.cache import EXPERIMENT_CACHE, cache_disabled, set_cache_budget
from repro.experiments.pipeline import (
    ExperimentConfig,
    cohort_record_specs,
    make_dataset,
    realize_record,
)
from repro.signals.dataset import Record, SyntheticFantasia

__all__ = [
    "AcquisitionResult",
    "DatasetPlane",
    "FanoutResult",
    "PlaneManifest",
    "RecordBlock",
    "attach_records",
    "attached_plane_tokens",
    "format_acquisition",
    "format_fanout",
    "leaked_segments",
    "measure_acquisition",
    "measure_fanout",
    "perf_stats",
    "realize_cohort_records",
    "seed_worker_cache",
]

#: Errors a shared-memory publish can legitimately fail with at runtime:
#: no ``/dev/shm`` or exhausted names/permissions/space (``OSError``
#: covers ``FileExistsError``/``FileNotFoundError``/``PermissionError``),
#: a platform without the module (``ImportError``), an allocation the
#: host cannot satisfy (``MemoryError``), and buffer-protocol trouble
#: while filling the segment (``BufferError``/``ValueError``).  Anything
#: else is a bug and must propagate.
PUBLISH_ERRORS = (OSError, ImportError, MemoryError, BufferError, ValueError)

#: Process-local perf accounting of the plane's publishes, cumulative
#: since process start.  Publishing happens in the parent only, so the
#: orchestrator's parent-side deltas around every study unit see it all;
#: attaching happens in the workers, whose counters no parent could read.
_PERF = {"publishes": 0, "publish_s": 0.0}


def perf_stats() -> dict[str, float]:
    """A snapshot of this process's publish perf counters."""
    return dict(_PERF)

#: Shared-memory segment name prefix; the CI leak check and the tests
#: grep ``/dev/shm`` for it after runs and crashes.
SEGMENT_PREFIX = "sift_plane_"

#: The arrays serialized per record, in layout order.
_FIELDS = ("ecg", "abp", "r_peaks", "systolic_peaks")

#: Alignment of each array inside the segment, in bytes.
_ALIGN = 64


def _plane_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(4)}"


@dataclass(frozen=True)
class RecordBlock:
    """Layout of one record inside the plane.

    ``fields`` maps each array of :data:`_FIELDS` to ``(offset, count,
    dtype_str)``; offsets index the shared segment.
    """

    cache_key: tuple
    subject_id: str
    sample_rate: float
    fields: tuple[tuple[str, int, int, str], ...]


@dataclass(frozen=True)
class PlaneManifest:
    """Everything a worker needs to attach: picklable, arrays excluded.

    ``token`` is the shared-memory segment's name; workers memoize
    attachments by it, so tasks of later runs (and rebuilt pools) attach
    at most once per process.
    """

    token: str
    total_bytes: int
    blocks: tuple[RecordBlock, ...]


def _layout(records: Mapping[Hashable, Record]) -> tuple[list[RecordBlock], int]:
    """Assign aligned offsets to every array of every record."""
    blocks: list[RecordBlock] = []
    offset = 0
    for key, record in records.items():
        fields = []
        for name in _FIELDS:
            array = np.ascontiguousarray(getattr(record, name))
            offset = -(-offset // _ALIGN) * _ALIGN
            fields.append((name, offset, int(array.size), array.dtype.str))
            offset += array.nbytes
        blocks.append(
            RecordBlock(
                cache_key=tuple(key) if isinstance(key, tuple) else (key,),
                subject_id=record.subject_id,
                sample_rate=record.sample_rate,
                fields=tuple(fields),
            )
        )
    return blocks, offset


def _cleanup_segment(shm) -> None:
    """Idempotent unlink of a plane's segment (finalizer body)."""
    try:
        shm.close()
    except BufferError:  # stray exported views: mapping dies with us
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class DatasetPlane:
    """Parent-side handle of a published record working set.

    Build one with :meth:`publish`; ship :attr:`manifest` to workers;
    :meth:`unlink` (or ``close()``, or garbage collection, or interpreter
    exit -- whichever comes first) destroys the backing segment exactly
    once.
    """

    def __init__(self, manifest: PlaneManifest, shm):
        self.manifest = manifest
        self._finalizer = weakref.finalize(self, _cleanup_segment, shm)

    @classmethod
    def publish(cls, records: Mapping[Hashable, Record]) -> "DatasetPlane":
        """Serialize ``records`` once into a new shared-memory segment.

        Raises one of :data:`PUBLISH_ERRORS` when shared memory is
        unavailable; nothing is left behind in that case.
        """
        from multiprocessing import shared_memory

        started = time.perf_counter()
        blocks, total = _layout(records)
        shm = None
        for _ in range(3):  # name collisions are theoretical; retry anyway
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, total), name=_plane_name()
                )
                break
            except FileExistsError:
                continue
        if shm is None:
            raise FileExistsError("could not allocate a unique segment name")
        try:
            for block, record in zip(blocks, records.values()):
                for name, offset, count, dtype in block.fields:
                    view = np.frombuffer(
                        shm.buf, dtype=np.dtype(dtype), count=count, offset=offset
                    )
                    view[:] = getattr(record, name)
                    del view  # drop the exported buffer before any close()
            manifest = PlaneManifest(
                token=shm.name, total_bytes=total, blocks=tuple(blocks)
            )
        except BaseException:
            _cleanup_segment(shm)
            raise
        _PERF["publishes"] += 1
        _PERF["publish_s"] += time.perf_counter() - started
        return cls(manifest, shm)

    @property
    def alive(self) -> bool:
        """False once the backing segment has been unlinked."""
        return self._finalizer.alive

    def unlink(self) -> None:
        """Destroy the backing segment (idempotent)."""
        self._finalizer()

    # A plane holds no other resources; closing is unlinking.
    close = unlink

    def __enter__(self) -> "DatasetPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


@dataclass
class _AttachedPlane:
    records: dict[tuple, Record]
    shm: object  # keeps the mapping alive while views exist


#: Process-local attachments, keyed by manifest token.  Bounded to the
#: *current* plane: attaching a new token evicts every stale one (and the
#: cache entries whose arrays may view into it).
_ATTACHED: dict[str, _AttachedPlane] = {}


def attached_plane_tokens() -> tuple[str, ...]:
    """Tokens of the planes this process currently has attached."""
    return tuple(_ATTACHED)


def _evict_stale_planes(current_token: str) -> None:
    """Drop attachments to other planes before mapping a new one.

    Long-lived pool workers outlive cohort runs; without eviction every
    plane they ever attached (and every record view seeded from it)
    would stay mapped for the worker's lifetime.  Stale cache entries
    may hold views into the stale segments, so the cache goes first.
    """
    stale = [token for token in _ATTACHED if token != current_token]
    if not stale:
        return
    EXPERIMENT_CACHE.clear()
    for token in stale:
        _detach(token)


def _detach(token: str) -> None:
    """Drop this process's attachment to one plane and unmap it."""
    plane = _ATTACHED.pop(token)
    plane.records.clear()
    try:
        plane.shm.close()
    except BufferError:
        # A stray view still exports the buffer; the mapping is
        # reclaimed when the process exits instead.
        pass


def _attach(manifest: PlaneManifest) -> _AttachedPlane:
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=manifest.token)
    records: dict[tuple, Record] = {}
    for block in manifest.blocks:
        arrays = {
            name: np.frombuffer(
                shm.buf, dtype=np.dtype(dtype), count=count, offset=offset
            )
            for name, offset, count, dtype in block.fields
        }
        records[block.cache_key] = Record(
            subject_id=block.subject_id,
            sample_rate=block.sample_rate,
            **arrays,
        )
    return _AttachedPlane(records=records, shm=shm)


def attach_records(manifest: PlaneManifest) -> Mapping[tuple, Record]:
    """The plane's records, as zero-copy views (memoized per process)."""
    plane = _ATTACHED.get(manifest.token)
    if plane is None:
        _evict_stale_planes(manifest.token)
        plane = _ATTACHED[manifest.token] = _attach(manifest)
    return plane.records


def seed_worker_cache(manifest: PlaneManifest) -> None:
    """Attach the plane and pre-populate this process's experiment cache.

    Idempotent and cheap after the first call: re-seeding refreshes the
    entries' LRU recency, so records a tiny budget evicted mid-run come
    back before the next task instead of being re-synthesized.
    """
    for key, record in attach_records(manifest).items():
        # Shared views cost one byte: the arrays are resident once
        # machine-wide, not once per worker.
        EXPERIMENT_CACHE.put(key, record, cost=1)


# ----------------------------------------------------------------------
# Realization and diagnostics
# ----------------------------------------------------------------------


def realize_cohort_records(
    config: ExperimentConfig,
    dataset: SyntheticFantasia | None = None,
    subjects: Iterable[int] | None = None,
) -> dict[tuple, Record]:
    """Realize the record working set of a cohort run, cache-backed.

    Returns ``{cache_key: Record}`` for every recording ``run_subject``
    would touch for the given subject indices (default: the whole
    cohort): the subject's training and test records plus the train- and
    test-donor records its donor split draws.  Keys are exactly the
    pipeline's record cache keys, so publishing and seeding cannot drift
    from what workers look up.
    """
    dataset = dataset if dataset is not None else make_dataset(config)
    return {
        key: realize_record(dataset, subject, duration, purpose, config)
        for key, (subject, duration, purpose) in cohort_record_specs(
            config, dataset, subjects
        ).items()
    }


def leaked_segments() -> list[str]:
    """Names of plane segments currently present in ``/dev/shm``.

    The CI leak check and the cleanup tests call this after runs and
    forced crashes; a non-empty result means some exit path failed to
    unlink.  Returns ``[]`` on platforms without ``/dev/shm``.
    """
    try:
        return sorted(
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        )
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []


# ----------------------------------------------------------------------
# What the plane buys, measured (the ``dataplane`` study)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AcquisitionResult:
    """How long one process takes to obtain the cohort working set."""

    n_records: int
    nbytes: int
    synthesis_s: float
    attach_s: float
    #: Every published record came back from the attach.
    complete: bool

    @property
    def speedup(self) -> float:
        return self.synthesis_s / self.attach_s


@dataclass(frozen=True)
class FanoutResult:
    """A multi-version cohort fan-out timed without and with the plane."""

    versions: tuple[str, ...]
    jobs: int
    without_s: float
    with_s: float
    #: Every task of both runs succeeded.
    all_ok: bool
    #: Both runs produced the same reference reports, task for task.
    identical: bool


def measure_acquisition(config: ExperimentConfig) -> AcquisitionResult:
    """Synthesizing the working set vs attaching shared views of it.

    This is the per-worker rebuild the plane removes: attaching is
    orders of magnitude faster than synthesizing (and re-detecting peaks
    on) the recordings.  Synthesis bypasses the experiment cache, so it
    is cold.
    """
    with cache_disabled():
        started = time.perf_counter()
        records = realize_cohort_records(config)
        synthesis_s = time.perf_counter() - started
    with DatasetPlane.publish(records) as plane:
        started = time.perf_counter()
        attached = attach_records(plane.manifest)
        attach_s = time.perf_counter() - started
        complete = set(attached) == set(records)
        _detach(plane.manifest.token)
    return AcquisitionResult(
        n_records=len(records),
        nbytes=sum(r.nbytes for r in records.values()),
        synthesis_s=synthesis_s,
        attach_s=attach_s,
        complete=complete,
    )


def measure_fanout(config: ExperimentConfig) -> FanoutResult:
    """End-to-end cohort fan-out with ``share_dataset`` off vs on.

    Two versions over two workers.  Each run starts from a cold parent
    cache, so the off mode cannot coast on fork-inherited records; one
    warm-up run primes the code paths and the fork machinery first.
    """
    from repro.experiments.runner import CohortRunner

    versions, jobs = ("reduced", "simplified"), 2

    def fanout(share: bool):
        # Evict every entry (counted as evictions) without clear()'s
        # counter reset, which would corrupt the orchestrator's deltas.
        set_cache_budget(set_cache_budget(0))
        started = time.perf_counter()
        with CohortRunner(
            config=config, jobs=jobs, with_device=False, share_dataset=share
        ) as runner:
            outcomes = [o for v in versions for o in runner.run_version(v)]
        return time.perf_counter() - started, outcomes

    fanout(True)
    without_s, without = fanout(False)
    with_s, with_plane = fanout(True)
    pairs = list(zip(without, with_plane, strict=True))
    all_ok = all(a.ok and b.ok for a, b in pairs)
    return FanoutResult(
        versions=versions,
        jobs=jobs,
        without_s=without_s,
        with_s=with_s,
        all_ok=all_ok,
        identical=all_ok
        and all(
            a.result.reference_report == b.result.reference_report for a, b in pairs
        ),
    )


def format_acquisition(result: AcquisitionResult) -> str:
    """The ``dataplane_acquisition`` report."""
    return (
        f"cohort working set: {result.n_records} records, "
        f"{result.nbytes / 2**20:.1f} MiB\n"
        f"synthesize (per worker, without plane): {result.synthesis_s * 1e3:.1f} ms\n"
        f"attach shared views (with plane):       {result.attach_s * 1e3:.3f} ms\n"
        f"acquisition speedup: {result.speedup:.0f}x"
    )


def format_fanout(result: FanoutResult) -> str:
    """The ``dataplane_fanout`` report."""
    return (
        f"cohort fan-out, jobs={result.jobs}, versions={list(result.versions)}\n"
        f"without plane (per-worker synthesis): {result.without_s:.2f} s\n"
        f"with plane (shared-memory attach):    {result.with_s:.2f} s\n"
        f"speedup: {result.without_s / result.with_s:.2f}x"
    )
