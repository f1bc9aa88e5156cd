"""Universal-model study: does SIFT need per-user training?

The paper trains one model per wearer.  Because SIFT's signal is the
*consistency* between ECG and ABP (not the wearer's identity -- see
``tests/test_integration.py::test_sift_checks_consistency_not_identity``),
a natural question is whether a single cross-user model works, which
would remove the per-user enrollment step entirely.

Protocol: leave-one-subject-out.  For each held-out subject, pool the
training windows of all *other* subjects (negatives: their own
synchronized pairs; positives: replacement among themselves), train one
SVM, and evaluate on the held-out subject's standard labelled stream.
Compared against the paper's per-user models on the identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.training import build_training_set
from repro.core.versions import DetectorVersion, make_extractor
from repro.experiments.pipeline import (
    ExperimentConfig,
    build_stream,
    make_dataset,
    run_subject,
)
from repro.experiments.reporting import format_table
from repro.ml.kernels import make_kernel
from repro.ml.metrics import DetectionReport, mean_report, score_predictions
from repro.ml.scaler import StandardScaler
from repro.ml.svm import SVC

__all__ = ["UniversalStudyResult", "format_universal_study", "run_universal_study"]


@dataclass(frozen=True)
class UniversalStudyResult:
    """Cohort-mean reports for the two training regimes."""

    per_user: DetectionReport
    universal: DetectionReport
    per_subject_universal: dict[str, DetectionReport]

    @property
    def accuracy_gap(self) -> float:
        """Per-user minus universal accuracy (positive = enrollment pays)."""
        return self.per_user.accuracy - self.universal.accuracy


def run_universal_study(
    config: ExperimentConfig | None = None,
    version: DetectorVersion | str = DetectorVersion.SIMPLIFIED,
) -> UniversalStudyResult:
    """Leave-one-subject-out universal model vs the paper's per-user models."""
    config = config or ExperimentConfig()
    if isinstance(version, str):
        version = DetectorVersion.from_name(version)
    dataset = make_dataset(config)

    # Pre-generate every subject's training record and donors once.
    records = {
        subject.subject_id: dataset.record(
            subject, config.train_duration_s, purpose="train"
        )
        for subject in dataset.subjects
    }
    if config.peak_source == "detected":
        records = {
            subject_id: record.redetect_peaks()
            for subject_id, record in records.items()
        }

    per_user_reports = []
    universal_reports: dict[str, DetectionReport] = {}
    for held_out in dataset.subjects:
        # The paper's per-user baseline on the standard stream.
        baseline = run_subject(
            dataset, held_out, version, config, with_device=False
        )
        per_user_reports.append(baseline.reference_report)

        # Universal model: pool every *other* subject's training set.
        extractor = make_extractor(version, grid_n=config.grid_n)
        X_parts, y_parts = [], []
        others = [s for s in dataset.subjects if s is not held_out]
        for subject in others:
            donors = [
                records[d.subject_id] for d in others if d is not subject
            ][: config.n_train_donors]
            training_set = build_training_set(
                extractor,
                records[subject.subject_id],
                donors,
                window_s=config.window_s,
                stride_s=config.train_stride_s,
                rng=np.random.default_rng([5, dataset.subjects.index(subject)]),
            )
            X_parts.append(training_set.X)
            y_parts.append(training_set.y)
        X = np.vstack(X_parts)
        y = np.concatenate(y_parts)

        scaler = StandardScaler()
        svc = SVC(
            C=config.svm_c,
            kernel=make_kernel(config.kernel, gamma=config.svm_gamma),
        )
        svc.fit(scaler.fit_transform(X), y)

        stream = build_stream(dataset, held_out, config)
        features = scaler.transform(extractor.extract_stream(stream.windows))
        predictions = svc.predict_bool(features)
        universal_reports[held_out.subject_id] = score_predictions(
            predictions, stream.labels
        )

    return UniversalStudyResult(
        per_user=mean_report(per_user_reports),
        universal=mean_report(universal_reports.values()),
        per_subject_universal=universal_reports,
    )


def format_universal_study(study: UniversalStudyResult) -> str:
    """The two regimes side by side, then per-held-out-subject accuracy."""
    rows = [
        [
            label,
            f"{100 * report.false_positive_rate:.2f}",
            f"{100 * report.false_negative_rate:.2f}",
            f"{100 * report.accuracy:.2f}",
        ]
        for label, report in (
            ("per-user (paper)", study.per_user),
            ("universal (LOSO)", study.universal),
        )
    ]
    return (
        format_table(["training", "FP %", "FN %", "Acc %"], rows)
        + "\n\nper-held-out-subject universal accuracy:\n"
        + "\n".join(
            f"  {subject_id}: {100 * report.accuracy:.1f}%"
            for subject_id, report in study.per_subject_universal.items()
        )
    )
