"""Ablation studies over the design choices the paper fixes.

Each function sweeps one knob of the pipeline and returns one row per
setting (plain dicts, ready for tabulation).  All ablations run on the
reference pipeline unless the knob itself concerns the device (fixed-point
precision), and default to the Simplified version -- the build the paper
positions as the sweet spot.

The cohort-mean sweeps accept ``jobs``: each swept setting fans its
per-subject runs over a :class:`~repro.experiments.runner.CohortRunner`
worker pool (forked after the parent realized the records), so a
sweep costs roughly one setting's wall-clock times the number of
settings divided by the worker count.  Results are identical at any
``jobs``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.attacks.base import SensorHijackingAttack
from repro.attacks.injection import (
    InterferenceInjectionAttack,
    MorphologyInjectionAttack,
)
from repro.attacks.replacement import ReplacementAttack
from repro.attacks.replay import ReplayAttack
from repro.attacks.scenario import AttackScenario
from repro.core.features.base import FeatureExtractor
from repro.core.features.simplified import SimplifiedFeatureExtractor
from repro.core.portrait import PortraitBatch
from repro.core.training import build_training_set
from repro.core.versions import DetectorVersion
from repro.experiments.pipeline import (
    ExperimentConfig,
    build_stream,
    make_dataset,
    train_detector,
)
from repro.ml.baselines import KNearestNeighbors, LogisticRegression, NearestCentroid
from repro.ml.kernels import make_kernel
from repro.ml.metrics import mean_report, score_predictions
from repro.ml.model_codegen import export_fixed_point
from repro.ml.scaler import StandardScaler
from repro.ml.svm import SVC

__all__ = [
    "attack_type_ablation",
    "classifier_ablation",
    "feature_class_ablation",
    "fixed_point_ablation",
    "grid_size_ablation",
    "mixed_attack_training_ablation",
    "training_duration_ablation",
    "window_size_ablation",
]


def _mean_accuracy(
    config: ExperimentConfig,
    version: DetectorVersion | str = "simplified",
    jobs: int = 1,
) -> dict[str, float]:
    """Reference-pipeline average metrics over the configured cohort.

    Raises ``RuntimeError`` when any subject fails (see
    :func:`~repro.experiments.runner.require_results`).
    """
    from repro.experiments.runner import CohortRunner, require_results

    with CohortRunner(config=config, jobs=jobs, with_device=False) as runner:
        results = require_results(runner.run_version(version))
    mean = mean_report(r.reference_report for r in results)
    return {
        "accuracy": mean.accuracy,
        "fp_rate": mean.false_positive_rate,
        "fn_rate": mean.false_negative_rate,
        "f1": mean.f1,
    }


def window_size_ablation(
    config: ExperimentConfig,
    window_values: Sequence[float] = (1.5, 3.0, 6.0, 12.0),
    jobs: int = 1,
) -> list[dict[str, Any]]:
    """Sweep the detection window size w (the paper fixes w = 3 s)."""
    rows = []
    for window_s in window_values:
        swept = replace(config, window_s=float(window_s))
        rows.append({"window_s": float(window_s), **_mean_accuracy(swept, jobs=jobs)})
    return rows


def grid_size_ablation(
    config: ExperimentConfig,
    grid_values: Sequence[int] = (10, 25, 50, 100),
    jobs: int = 1,
) -> list[dict[str, Any]]:
    """Sweep the occupancy-grid size n (the paper fixes n = 50)."""
    rows = []
    for grid_n in grid_values:
        swept = replace(config, grid_n=int(grid_n))
        rows.append({"grid_n": int(grid_n), **_mean_accuracy(swept, jobs=jobs)})
    return rows


def training_duration_ablation(
    config: ExperimentConfig,
    durations_s: Sequence[float] = (120.0, 300.0, 600.0, 1200.0),
    jobs: int = 1,
) -> list[dict[str, Any]]:
    """Sweep Delta, the training-data duration (paper: 20 minutes)."""
    rows = []
    for duration in durations_s:
        swept = replace(config, train_duration_s=float(duration))
        rows.append(
            {"train_duration_s": float(duration), **_mean_accuracy(swept, jobs=jobs)}
        )
    return rows


class _MatrixOnlyExtractor(SimplifiedFeatureExtractor):
    """The three simplified matrix features alone (ablation-only build).

    The Simplified build's first three columns; each column is computed
    independently of the others, so they equal the full build's exactly.
    """

    _NAMES = SimplifiedFeatureExtractor._NAMES[:3]

    def _extract_batch(self, batch: PortraitBatch) -> np.ndarray:
        return super()._extract_batch(batch)[:, :3]


def feature_class_ablation(
    config: ExperimentConfig, jobs: int = 1
) -> list[dict[str, Any]]:
    """Matrix-only vs geometric-only vs both (why Reduced loses accuracy)."""
    dataset = make_dataset(config)

    def evaluate_extractor(extractor_factory: Callable[[], FeatureExtractor]) -> dict:
        reports = []
        for subject in dataset.subjects:
            extractor = extractor_factory()
            stream = build_stream(dataset, subject, config)
            training_record = dataset.record(
                subject, config.train_duration_s, purpose="train"
            )
            donors = [
                dataset.record(d, config.donor_duration_s, purpose="train")
                for d in dataset.subjects
                if d is not subject
            ][: config.n_train_donors]
            training_set = build_training_set(
                extractor,
                training_record,
                donors,
                window_s=config.window_s,
                stride_s=config.train_stride_s,
            )
            scaler = StandardScaler()
            X = scaler.fit_transform(training_set.X)
            svc = SVC(
                C=config.svm_c,
                kernel=make_kernel(config.kernel, gamma=config.svm_gamma),
            )
            svc.fit(X, training_set.y)
            features = scaler.transform(extractor.extract_stream(stream.windows))
            predictions = svc.predict_bool(features)
            reports.append(score_predictions(predictions, stream.labels))
        mean = mean_report(reports)
        return {"accuracy": mean.accuracy, "f1": mean.f1}

    grid_n = config.grid_n
    rows = [
        {
            "features": "matrix_only",
            "n_features": 3,
            **evaluate_extractor(lambda: _MatrixOnlyExtractor(grid_n=grid_n)),
        },
        {
            "features": "geometric_only (reduced)",
            "n_features": 5,
            **_subset(
                _mean_accuracy(config, version="reduced", jobs=jobs),
                ("accuracy", "f1"),
            ),
        },
        {
            "features": "both (simplified)",
            "n_features": 8,
            **_subset(
                _mean_accuracy(config, version="simplified", jobs=jobs),
                ("accuracy", "f1"),
            ),
        },
    ]
    return rows


def _subset(values: dict[str, float], keys: Sequence[str]) -> dict[str, float]:
    return {key: values[key] for key in keys}


def classifier_ablation(config: ExperimentConfig) -> list[dict[str, Any]]:
    """The "other algorithms we tried" comparison (paper: SVM won)."""
    dataset = make_dataset(config)
    classifiers: dict[str, Callable[[], Any]] = {
        "svm_linear": lambda: SVC(C=config.svm_c, kernel=make_kernel("linear")),
        "svm_rbf": lambda: SVC(
            C=config.svm_c, kernel=make_kernel("rbf", gamma=config.svm_gamma)
        ),
        "logistic": lambda: LogisticRegression(),
        "knn5": lambda: KNearestNeighbors(k=5),
        "centroid": lambda: NearestCentroid(),
    }
    rows = []
    for name, factory in classifiers.items():
        reports = []
        for subject in dataset.subjects:
            detector = train_detector(dataset, subject, "simplified", config)
            stream = build_stream(dataset, subject, config)
            # Rebuild the training set once per subject for the classifier.
            training_record = dataset.record(
                subject, config.train_duration_s, purpose="train"
            )
            donors = [
                dataset.record(d, config.donor_duration_s, purpose="train")
                for d in dataset.subjects
                if d is not subject
            ][: config.n_train_donors]
            training_set = build_training_set(
                detector.extractor,
                training_record,
                donors,
                window_s=config.window_s,
                stride_s=config.train_stride_s,
            )
            scaler = StandardScaler()
            X = scaler.fit_transform(training_set.X)
            clf = factory()
            clf.fit(X, training_set.y)
            features = scaler.transform(
                detector.extractor.extract_stream(stream.windows)
            )
            predictions = clf.predict_bool(features)
            reports.append(score_predictions(predictions, stream.labels))
        mean = mean_report(reports)
        rows.append(
            {"classifier": name, "accuracy": mean.accuracy, "f1": mean.f1}
        )
    return rows


def fixed_point_ablation(
    config: ExperimentConfig, frac_bits_values: Sequence[int] = (4, 6, 8, 10, 14, 20)
) -> list[dict[str, Any]]:
    """Quantization error of the deployed model vs fractional bits."""
    dataset = make_dataset(config)
    rows = []
    for frac_bits in frac_bits_values:
        reports = []
        agreements = []
        for subject in dataset.subjects:
            detector = train_detector(dataset, subject, "simplified", config)
            stream = build_stream(dataset, subject, config)
            model = export_fixed_point(
                detector.svc, detector.scaler, frac_bits=int(frac_bits)
            )
            features = detector.extractor.extract_stream(stream.windows)
            fixed_pred = np.array(
                [model.predict_bool_fixed(model.quantize(f)) for f in features]
            )
            float_pred = detector.svc.predict_bool(
                detector.scaler.transform(features)
            )
            agreements.append(float(np.mean(fixed_pred == float_pred)))
            reports.append(score_predictions(fixed_pred, stream.labels))
        mean = mean_report(reports)
        rows.append(
            {
                "frac_bits": int(frac_bits),
                "accuracy": mean.accuracy,
                "agreement_with_float": float(np.mean(agreements)),
            }
        )
    return rows


def mixed_attack_training_ablation(
    config: ExperimentConfig,
) -> list[dict[str, Any]]:
    """Does training against a broader threat model close blind spots?

    Compares the paper's replacement-only positive class with a mixed
    positive class (replacement + interference + morphology), evaluated
    against each attack type.  One row per (training regime, eval attack).
    """
    from repro.core.detector import SIFTDetector

    dataset = make_dataset(config)
    eval_attacks = ("replacement", "interference", "morphology")
    collected: dict[tuple[str, str], list] = {
        (regime, attack): []
        for regime in ("replacement_only", "mixed")
        for attack in eval_attacks
    }
    for index, subject in enumerate(dataset.subjects):
        others = [s for s in dataset.subjects if s is not subject]
        training_record = dataset.record(
            subject, config.train_duration_s, purpose="train"
        )
        train_donors = [
            dataset.record(d, config.donor_duration_s, purpose="train")
            for d in others[: config.n_train_donors]
        ]
        test_record = dataset.record(
            subject, config.test_duration_s, purpose="test"
        )
        test_donors = [
            dataset.record(d, config.donor_duration_s, purpose="test")
            for d in others[config.n_train_donors :][: config.n_test_donors]
        ]
        regimes = {
            "replacement_only": None,
            "mixed": [
                ReplacementAttack(train_donors),
                InterferenceInjectionAttack(amplitude=1.0),
                MorphologyInjectionAttack(),
            ],
        }
        evaluations = {
            "replacement": ReplacementAttack(test_donors),
            "interference": InterferenceInjectionAttack(amplitude=1.0),
            "morphology": MorphologyInjectionAttack(),
        }
        for regime, attacks in regimes.items():
            detector = SIFTDetector(
                version="simplified",
                window_s=config.window_s,
                grid_n=config.grid_n,
                C=config.svm_c,
            )
            detector.fit(
                training_record,
                train_donors,
                stride_s=config.train_stride_s,
                attacks=attacks,
            )
            for name, attack in evaluations.items():
                scenario = AttackScenario(
                    attack,
                    window_s=config.window_s,
                    altered_fraction=config.altered_fraction,
                )
                stream = scenario.build(
                    test_record,
                    np.random.default_rng([config.scenario_seed, index, 3]),
                )
                collected[(regime, name)].append(detector.evaluate(stream))
    rows = []
    for (regime, attack), reports in collected.items():
        mean = mean_report(reports)
        rows.append(
            {
                "training": regime,
                "eval_attack": attack,
                "accuracy": mean.accuracy,
                "fn_rate": mean.false_negative_rate,
                "fp_rate": mean.false_positive_rate,
            }
        )
    return rows


def attack_type_ablation(config: ExperimentConfig) -> list[dict[str, Any]]:
    """Detection performance across the threat model's attack classes."""
    dataset = make_dataset(config)

    def build_attacks(
        subject, test_donors
    ) -> dict[str, SensorHijackingAttack]:
        captured = dataset.record(subject, config.donor_duration_s, purpose="extra")
        return {
            "replacement": ReplacementAttack(test_donors),
            "replay": ReplayAttack(captured),
            "interference": InterferenceInjectionAttack(),
            "morphology": MorphologyInjectionAttack(),
        }

    names = ("replacement", "replay", "interference", "morphology")
    collected: dict[str, list] = {name: [] for name in names}
    for index, subject in enumerate(dataset.subjects):
        detector = train_detector(dataset, subject, "simplified", config)
        others = [s for s in dataset.subjects if s is not subject]
        test_donors = [
            dataset.record(d, config.donor_duration_s, purpose="test")
            for d in others[: config.n_test_donors]
        ]
        test_record = dataset.record(
            subject, config.test_duration_s, purpose="test"
        )
        for name, attack in build_attacks(subject, test_donors).items():
            scenario = AttackScenario(
                attack,
                window_s=config.window_s,
                altered_fraction=config.altered_fraction,
            )
            stream = scenario.build(
                test_record, np.random.default_rng([config.scenario_seed, index])
            )
            collected[name].append(detector.evaluate(stream))
    rows = []
    for name in names:
        mean = mean_report(collected[name])
        rows.append(
            {
                "attack": name,
                "accuracy": mean.accuracy,
                "fn_rate": mean.false_negative_rate,
                "fp_rate": mean.false_positive_rate,
            }
        )
    return rows
