"""Checkpointed experiment orchestrator: the single experiment driver.

The paper's evaluation is a matrix of one-shot studies (Table II/III,
Fig. 3, the ablations, the fault matrix, the universal-model question),
registered in :mod:`repro.experiments.studies`.  This module drives them:

* **Checkpointed units.**  Every study is decomposed into *units* -- one
  detector version of Table II, one ablation sweep, one fault of the
  fault matrix.  Each completed unit appends one JSONL line (its config
  hash, encoded result, wall-clock, windows scored, experiment-cache
  counter deltas) to ``benchmarks/results/checkpoints/<study>.jsonl``,
  flushed and fsynced before the next unit starts.  Re-running skips
  every unit whose checkpoint carries the current config hash, so an
  interrupted sweep resumes mid-matrix, recomputing only the unit it
  died in.
* **Reports from checkpoints.**  Results are persisted with the generic
  codec (:mod:`repro.core.codec`) and reports are rendered from
  the *decoded* line even on the first run, so a resumed run's reports
  are bit-identical to an uninterrupted run's, and ``reeval=True``
  regenerates every report with zero recomputation.
* **Perf trajectory.**  A run that computed anything emits
  ``BENCH_<stamp>.json`` through :mod:`repro.experiments.trajectory`.

Checkpoint *invalidation* is content-keyed, like the experiment cache:
a unit's hash covers every protocol knob that influences its numbers
(the full :class:`~repro.experiments.pipeline.ExperimentConfig` plus the
unit's own sweep values) and excludes the knobs that provably do not
(``jobs`` -- cohort results are bit-identical at any worker count).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.core.codec import decode, encode
from repro.core.durable_log import DurableLog
from repro.experiments.cache import EXPERIMENT_CACHE
from repro.experiments.pipeline import ExperimentConfig
from repro.experiments.studies import (
    StudyContext,
    StudyDefinition,
    UnitSpec,
    build_registry,
)
from repro.experiments.trajectory import (
    CACHE_KEYS,
    build_trajectory,
    write_trajectory,
)

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "MissingCheckpointError",
    "Orchestrator",
    "OrchestratorRun",
    "StudyRun",
    "UnitOutcome",
    "config_hash",
]

#: Schema version stamped into every checkpoint line.  Lines from another
#: schema (an older payload layout) are ignored and their units recompute.
CHECKPOINT_SCHEMA = 2

#: Default on-disk locations, relative to the repository root (the CLI
#: runs from there; tests pass explicit directories).  Quick runs write
#: their reports and trajectory under ``quick/`` so they never overwrite
#: the committed full-protocol reports.
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"
DEFAULT_CHECKPOINT_DIR = DEFAULT_RESULTS_DIR / "checkpoints"


class CheckpointError(RuntimeError):
    """Base class for checkpoint-layer failures."""


class MissingCheckpointError(CheckpointError):
    """``reeval`` asked for a unit that was never computed (or whose
    config hash no longer matches the requested configuration)."""


# ----------------------------------------------------------------------
# Config hashing
# ----------------------------------------------------------------------


def config_hash(params: Any) -> str:
    """A stable content hash of a unit's parameters.

    The generic codec's form of ``params`` as canonical JSON (sorted
    keys, no whitespace) through SHA-256: the same parameters hash
    identically across processes and Python versions, and any change to
    any protocol knob changes the hash -- which is what invalidates a
    stale checkpoint.
    """
    try:
        encoded = encode(params)
    except TypeError as exc:
        raise TypeError(f"unhashable unit parameter: {exc}") from None
    canonical = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------


class CheckpointStore:
    """One JSONL checkpoint file per study, append-only, crash-tolerant.

    Each line is one completed unit: ``{"schema", "unit", "config_hash",
    "payload", "wall_s", "n_windows", "p99_ms", "cache",
    "completed_at"}``, written through the shared
    :class:`~repro.core.durable_log.DurableLog`: appends are flushed
    *and* fsynced so a unit that completed before a kill is never lost;
    a line truncated by the kill itself is skipped (with the units it would have described simply
    recomputed).  The latest line per unit wins, so recomputing a unit
    under a new config hash supersedes its stale checkpoint without
    rewriting the file.
    """

    def __init__(self, directory: Path | str = DEFAULT_CHECKPOINT_DIR):
        self.directory = Path(directory)

    def path(self, study: str) -> Path:
        """The study's JSONL checkpoint file."""
        return self.directory / f"{study.replace('/', '_')}.jsonl"

    def load(self, study: str) -> dict[str, dict[str, Any]]:
        """The latest checkpoint record per unit name (empty if none)."""
        return {
            str(record["unit"]): record
            for record in DurableLog(self.path(study)).records()
            if "unit" in record
        }

    def append(self, study: str, record: Mapping[str, Any]) -> str:
        """Durably append one completed unit's record; return its line."""
        (line,) = DurableLog(self.path(study)).append([record])
        return line

    def remove(self, study: str) -> None:
        """Drop a study's checkpoints (``fresh`` runs recompute)."""
        DurableLog(self.path(study)).remove()


# ----------------------------------------------------------------------
# Run records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UnitOutcome:
    """One measured unit: its decoded result plus what it cost."""

    name: str
    wall_s: float
    cached: bool = False
    result: Any = None
    config_hash: str = ""
    n_windows: int = 0
    p99_ms: float = 0.0
    cache: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class StudyRun:
    """One study's units plus the report files it produced."""

    name: str
    units: tuple[UnitOutcome, ...]
    reports: dict[str, Path] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Wall-clock actually spent computing (cached units cost ~0)."""
        return sum(u.wall_s for u in self.units if not u.cached)

    @property
    def recomputed_units(self) -> int:
        return sum(1 for u in self.units if not u.cached)

    @property
    def n_windows(self) -> int:
        """Windows scored by recomputed units (0 when unreported)."""
        return sum(u.n_windows for u in self.units if not u.cached)

    @property
    def results(self) -> dict[str, Any]:
        """The decoded result of every unit, in unit order."""
        return {u.name: u.result for u in self.units}


@dataclass(frozen=True)
class OrchestratorRun:
    """Everything one ``Orchestrator.run`` produced."""

    studies: tuple[StudyRun, ...]
    trajectory: dict[str, Any] | None
    trajectory_path: Path | None


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------


class Orchestrator:
    """The single checkpointed driver behind every study entry point.

    Parameters
    ----------
    quick:
        Run every study under :meth:`ExperimentConfig.quick` and trim
        the sweeps (ablation values, fault severities, grid sizes) to
        smoke size.  Otherwise each study runs its own full-protocol
        config (the one its committed reports use).  Affects unit
        *params*, so quick and full checkpoints never collide.
    jobs:
        Worker processes for the cohort-fanning units.  Not part of any
        config hash: results are bit-identical at any worker count.
    checkpoint_dir / results_dir:
        Where unit checkpoints and rendered reports live.  The results
        directory defaults to ``benchmarks/results``, or its ``quick/``
        subdirectory for quick runs.
    registry:
        Study registry override (tests inject synthetic studies).
    echo:
        Per-unit progress sink (e.g. ``print``); ``None`` = silent.
    """

    def __init__(
        self,
        quick: bool = False,
        jobs: int = 1,
        checkpoint_dir: Path | str = DEFAULT_CHECKPOINT_DIR,
        results_dir: Path | str | None = None,
        registry: Mapping[str, StudyDefinition] | None = None,
        echo: Callable[[str], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if results_dir is None:
            results_dir = DEFAULT_RESULTS_DIR / "quick" if quick else DEFAULT_RESULTS_DIR
        self.quick = bool(quick)
        self.jobs = int(jobs)
        self.store = CheckpointStore(checkpoint_dir)
        self.results_dir = Path(results_dir)
        self.registry = dict(registry) if registry is not None else build_registry()
        self._echo = echo

    def echo(self, message: str) -> None:
        """Forward a progress line to the configured sink (if any)."""
        if self._echo is not None:
            self._echo(message)

    def _check_names(self, names: Sequence[str]) -> None:
        unknown = [name for name in names if name not in self.registry]
        if unknown:
            known = ", ".join(self.registry)
            raise CheckpointError(
                f"unknown study {', '.join(map(repr, unknown))} (known: {known})"
            )

    # -- single-study execution ----------------------------------------

    def run_study(self, name: str, reeval: bool = False) -> StudyRun:
        """Run (or resume, or re-render) one study.

        Units whose checkpoint carries the current config hash are
        *skipped* -- their results come off disk.  ``reeval`` forbids
        computation entirely: a unit without a valid checkpoint raises
        :class:`MissingCheckpointError`.
        """
        self._check_names([name])
        definition = self.registry[name]
        config = ExperimentConfig.quick() if self.quick else definition.config
        ctx = StudyContext(config=config, quick=self.quick, jobs=self.jobs)
        existing = self.store.load(name)
        outcomes: list[UnitOutcome] = []
        for spec in definition.build_units(ctx):
            unit_hash = config_hash(spec.params)
            record = existing.get(spec.name)
            if (
                record is not None
                and record.get("schema") == CHECKPOINT_SCHEMA
                and record.get("config_hash") == unit_hash
            ):
                self.echo(f"[{name}] {spec.name}: checkpoint hit ({unit_hash})")
                outcomes.append(_outcome(spec, record, cached=True))
                continue
            if reeval:
                raise MissingCheckpointError(
                    f"study {name!r} unit {spec.name!r} has no checkpoint "
                    f"for hash {unit_hash} -- run without reeval first"
                )
            outcomes.append(self._run_unit(name, ctx, spec, unit_hash))
        reports: dict[str, Path] = {}
        results = {o.name: o.result for o in outcomes}
        for report_name, text in definition.render(ctx, results).items():
            self.results_dir.mkdir(parents=True, exist_ok=True)
            path = self.results_dir / f"{report_name}.txt"
            path.write_text(text + "\n")
            reports[report_name] = path
        return StudyRun(name=name, units=tuple(outcomes), reports=reports)

    def _run_unit(
        self, study: str, ctx: StudyContext, spec: UnitSpec, unit_hash: str
    ) -> UnitOutcome:
        cache_before = EXPERIMENT_CACHE.stats()
        started = time.perf_counter()
        result = spec.run(ctx)
        wall_s = time.perf_counter() - started
        cache_after = EXPERIMENT_CACHE.stats()
        record = {
            "schema": CHECKPOINT_SCHEMA,
            "unit": spec.name,
            "config_hash": unit_hash,
            "payload": encode(result),
            "wall_s": round(wall_s, 6),
            "n_windows": int(spec.n_windows(result)) if spec.n_windows else 0,
            "p99_ms": float(spec.p99_ms(result)) if spec.p99_ms else 0.0,
            "cache": {
                key: int(cache_after[key]) - int(cache_before[key])
                for key in CACHE_KEYS
            },
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        # Decode the line as written, *now*: the first run renders from
        # exactly what a resumed run will load, so reports stay
        # bit-identical either way.
        line = self.store.append(study, record)
        self.echo(f"[{study}] {spec.name}: computed in {wall_s:.2f}s")
        return _outcome(spec, json.loads(line), cached=False)

    # -- full runs ------------------------------------------------------

    def run(
        self,
        studies: Sequence[str] | None = None,
        reeval: bool = False,
        fresh: bool = False,
        trajectory: bool = True,
    ) -> OrchestratorRun:
        """Run the study matrix (default: every registered study).

        Every name is validated before anything is removed or run.
        ``fresh`` drops the selected studies' checkpoints first;
        ``reeval`` renders reports from checkpoints alone (zero
        recomputation, no trajectory).  On completion a ``BENCH_<stamp>
        .json`` perf trajectory lands in the results directory (also
        copied to ``BENCH_latest.json`` for the CI gate).
        """
        names = list(studies) if studies is not None else list(self.registry)
        self._check_names(names)
        if fresh:
            if reeval:
                raise CheckpointError("fresh and reeval are contradictory")
            for name in names:
                self.store.remove(name)
        runs = tuple(self.run_study(name, reeval=reeval) for name in names)
        record: dict[str, Any] | None = None
        path: Path | None = None
        recomputed = sum(run.recomputed_units for run in runs)
        if trajectory and not reeval and recomputed > 0:
            # A fully-cached run measured nothing; writing its ~0s
            # trajectory would clobber BENCH_latest.json with a record
            # the regression gate can only skip.
            record = build_trajectory(runs, quick=self.quick, jobs=self.jobs)
            path = write_trajectory(record, self.results_dir)
            self.echo(f"perf trajectory: {path}")
        return OrchestratorRun(studies=runs, trajectory=record, trajectory_path=path)


def _outcome(spec: UnitSpec, record: Mapping[str, Any], cached: bool) -> UnitOutcome:
    """A unit's outcome from its checkpoint record."""
    return UnitOutcome(
        name=spec.name,
        wall_s=float(record["wall_s"]),
        cached=cached,
        result=decode(spec.returns, record["payload"]),
        config_hash=str(record["config_hash"]),
        n_windows=int(record["n_windows"]),
        p99_ms=float(record["p99_ms"]),
        cache=dict(record["cache"]),
    )
