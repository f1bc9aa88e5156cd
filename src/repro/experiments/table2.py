"""Table II: detection performance of the three detector versions.

For every subject and every version, the pipeline trains a user-specific
model, evaluates the same labelled stream on both platforms -- the
simulated Amulet and the float64 reference (the paper's MATLAB column) --
and averages the per-subject FP/FN/accuracy/F1 rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.versions import DetectorVersion
from repro.experiments.pipeline import ExperimentConfig, SubjectRunResult
from repro.experiments.reporting import format_table
from repro.experiments.runner import CohortOutcome, CohortRunner
from repro.ml.metrics import DetectionReport, mean_report

__all__ = ["Table2Result", "Table2Row", "format_table2", "run_table2"]

#: The values the paper reports, for side-by-side comparison in the bench
#: output and EXPERIMENTS.md.  Keys: (version, platform); values:
#: (FP %, FN %, Acc %, F1 %).
PAPER_TABLE2: dict[tuple[str, str], tuple[float, float, float, float]] = {
    ("original", "amulet"): (0.83, 12.50, 93.06, 92.77),
    ("original", "reference"): (5.83, 10.23, 91.97, 91.97),
    ("simplified", "amulet"): (6.67, 7.58, 92.86, 93.43),
    ("simplified", "reference"): (5.00, 12.88, 91.06, 90.28),
    ("reduced", "amulet"): (12.08, 15.15, 86.31, 87.10),
    ("reduced", "reference"): (22.08, 14.39, 81.76, 84.04),
}


@dataclass(frozen=True)
class Table2Row:
    """One (version, platform) row of Table II."""

    version: DetectorVersion
    platform: str  # "amulet" | "reference"
    report: DetectionReport

    @property
    def paper_values(self) -> tuple[float, float, float, float] | None:
        return PAPER_TABLE2.get((self.version.value, self.platform))


@dataclass(frozen=True)
class Table2Result:
    """All rows plus the per-subject details behind them."""

    rows: tuple[Table2Row, ...]
    per_subject: tuple[SubjectRunResult, ...]
    config: ExperimentConfig
    #: Outcomes of subjects that errored (empty on a clean run).
    failures: tuple[CohortOutcome, ...] = ()

    def row(self, version: DetectorVersion, platform: str) -> Table2Row:
        """Look up one (version, platform) row (KeyError if absent)."""
        for candidate in self.rows:
            if candidate.version is version and candidate.platform == platform:
                return candidate
        raise KeyError(f"no row for ({version}, {platform!r})")

    @classmethod
    def merge(cls, parts: Sequence[Table2Result]) -> Table2Result:
        """Concatenate per-version results run under one config."""
        return cls(
            rows=tuple(row for part in parts for row in part.rows),
            per_subject=tuple(s for part in parts for s in part.per_subject),
            config=parts[0].config,
            failures=tuple(f for part in parts for f in part.failures),
        )


def run_table2(
    config: ExperimentConfig | None = None,
    versions: tuple[DetectorVersion, ...] = tuple(DetectorVersion),
    jobs: int = 1,
    chunk_size: int | None = None,
    cache_bytes: int | None = None,
    task_timeout_s: float | None = None,
    max_retries: int = 0,
    retry_backoff_s: float = 0.5,
    share_dataset: bool = True,
) -> Table2Result:
    """Run the full Table II protocol.

    ``jobs > 1`` fans the per-subject runs over worker processes; the
    averages are identical to the serial run (failing subjects, if any,
    are excluded from the means and reported in ``failures``).
    ``chunk_size`` bounds the reference evaluation's scoring memory and
    ``cache_bytes`` the experiment cache's LRU budget (both per worker);
    neither changes a single reported number.  ``task_timeout_s``,
    ``max_retries`` and ``retry_backoff_s`` are the hardened runner's
    fault-tolerance knobs (see :class:`CohortRunner`); the defaults keep
    the historical fail-fast behaviour.  ``share_dataset`` publishes the
    cohort recordings once through the zero-copy dataset plane instead of
    re-synthesizing them in every worker (results are identical either
    way; disable only to diagnose shared-memory issues).
    """
    config = config or ExperimentConfig()
    per_subject: list[SubjectRunResult] = []
    failures: list[CohortOutcome] = []
    rows: list[Table2Row] = []
    with CohortRunner(
        config=config,
        jobs=jobs,
        with_device=True,
        chunk_size=chunk_size,
        cache_bytes=cache_bytes,
        task_timeout_s=task_timeout_s,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
        share_dataset=share_dataset,
    ) as runner:
        for version in versions:
            outcomes = runner.run_version(version)
            failures.extend(o for o in outcomes if not o.ok)
            results = [o.result for o in outcomes if o.ok]
            per_subject.extend(results)
            rows.append(
                Table2Row(
                    version=version,
                    platform="amulet",
                    report=mean_report(
                        r.device_report for r in results if r.device_report
                    ),
                )
            )
            rows.append(
                Table2Row(
                    version=version,
                    platform="reference",
                    report=mean_report(r.reference_report for r in results),
                )
            )
    return Table2Result(
        rows=tuple(rows),
        per_subject=tuple(per_subject),
        config=config,
        failures=tuple(failures),
    )


def format_table2_by_subject(result: Table2Result) -> str:
    """Per-subject detail behind the averages (reference platform).

    The paper reports only cohort means; this view exposes the
    per-subject scatter, which is what makes small mean differences
    between versions statistically fragile.
    """
    subjects = sorted({r.subject_id for r in result.per_subject})
    versions = sorted(
        {r.version for r in result.per_subject}, key=lambda v: v.value
    )
    headers = ["Subject"] + [v.value for v in versions]
    body = []
    for subject_id in subjects:
        row = [subject_id]
        for version in versions:
            match = [
                r
                for r in result.per_subject
                if r.subject_id == subject_id and r.version is version
            ]
            row.append(
                f"{100 * match[0].reference_report.accuracy:.1f}%"
                if match
                else "-"
            )
        body.append(row)
    # Per-version scatter summary.
    import numpy as np

    spread_row = ["(std dev)"]
    for version in versions:
        accuracies = [
            r.reference_report.accuracy
            for r in result.per_subject
            if r.version is version
        ]
        spread_row.append(f"{100 * float(np.std(accuracies)):.1f}")
    body.append(spread_row)
    return format_table(
        headers, body, title="Per-subject accuracy (reference pipeline)"
    )


def format_table2(result: Table2Result, include_paper: bool = True) -> str:
    """Render the result in the paper's Table II layout."""
    headers = ["Version", "Platform", "Avg. FP", "Avg. FN", "Avg. Acc", "Avg. F1"]
    if include_paper:
        headers.append("(paper: FP/FN/Acc/F1)")
    body = []
    for row in result.rows:
        fp, fn, acc, f1 = row.report.as_percent_row()
        cells = [
            row.version.value.capitalize(),
            "Amulet" if row.platform == "amulet" else "Reference (MATLAB)",
            f"{fp:.2f}%",
            f"{fn:.2f}%",
            f"{acc:.2f}%",
            f"{f1:.2f}%",
        ]
        if include_paper:
            paper = row.paper_values
            cells.append(
                "/".join(f"{v:.2f}" for v in paper) if paper else "-"
            )
        body.append(cells)
    return format_table(
        headers,
        body,
        title="TABLE II: Performance Evaluation for Three Versions of Detector",
    )
