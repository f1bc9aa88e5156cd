"""Robustness studies beyond the paper's evaluation.

Three operational questions a deployment would ask next:

* **Channel loss** -- how does detection degrade as the body-area link
  drops packets?  (Windows missing a half are skipped, so loss costs
  *coverage*, not per-window correctness.)
* **Artifact load** -- how do motion artifacts, the realistic enemy of
  wearable signal quality, move the FP/FN balance?
* **Alert debouncing** -- how much episode-level precision does the k-of-n
  streaming debouncer buy over the paper's per-window alerting?
* **Fault matrix** -- how do accuracy, coverage and abstain rate move as
  each named sensor/channel fault is injected at increasing severity?
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Sequence

import numpy as np

from repro.attacks.replacement import ReplacementAttack
from repro.attacks.scenario import AttackScenario
from repro.core.streaming import StreamingDetector
from repro.experiments.pipeline import (
    ExperimentConfig,
    build_stream,
    make_dataset,
    train_detector,
)
from repro.faults import build_fault_cell, fault_names
from repro.ml.metrics import mean_report, score_predictions
from repro.signals.dataset import Record, SyntheticFantasia
from repro.signals.quality import SignalQualityIndex
from repro.signals.subjects import SubjectParameters
from repro.wiot.channel import WirelessChannel
from repro.wiot.environment import WIoTEnvironment

__all__ = [
    "artifact_load_study",
    "channel_loss_study",
    "debounce_study",
    "fault_matrix_study",
    "format_fault_matrix",
]


def _test_materials(
    dataset: SyntheticFantasia,
    subject: SubjectParameters,
    config: ExperimentConfig,
) -> tuple[Record, list[Record]]:
    """The subject's test recording plus the attack donor pool."""
    others = [s for s in dataset.subjects if s is not subject]
    donors = [
        dataset.record(d, config.donor_duration_s, purpose="test")
        for d in others[: config.n_test_donors]
    ]
    record = dataset.record(subject, config.test_duration_s, purpose="test")
    return record, donors


def channel_loss_study(
    config: ExperimentConfig,
    loss_values: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4),
) -> list[dict[str, Any]]:
    """Sweep the wireless loss probability through the full environment.

    Subject-major iteration: each subject's detector is trained (or pulled
    from the experiment cache) and its test materials built exactly once,
    then reused across the whole loss sweep -- the channel is the only
    thing that varies between sweep points, so it is the only thing reset.
    The per-(subject, loss) RNG streams match the historical loss-major
    iteration, so the numbers are unchanged.
    """
    dataset = make_dataset(config)
    loss_values = [float(loss) for loss in loss_values]
    coverages: dict[float, list[float]] = {loss: [] for loss in loss_values}
    accuracies: dict[float, list[float]] = {loss: [] for loss in loss_values}
    for index, subject in enumerate(dataset.subjects):
        detector = train_detector(dataset, subject, "simplified", config)
        record, donors = _test_materials(dataset, subject, config)
        channel = WirelessChannel(seed=1000 + index)
        for loss in loss_values:
            channel.reset(loss_probability=loss)
            environment = WIoTEnvironment(detector, channel=channel)
            summary = environment.run(
                record,
                attack=ReplacementAttack(donors),
                attack_after_s=config.test_duration_s / 2,
                rng=np.random.default_rng([7, index]),
            )
            coverages[loss].append(summary.coverage)
            if summary.report is not None:
                accuracies[loss].append(summary.report.accuracy)
    return [
        {
            "loss_probability": loss,
            "window_coverage": float(np.mean(coverages[loss])),
            "accuracy_on_classified": float(np.mean(accuracies[loss])),
        }
        for loss in loss_values
    ]


def fault_matrix_study(
    config: ExperimentConfig,
    faults: Sequence[str] | None = None,
    severities: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
) -> list[dict[str, Any]]:
    """Sweep every named fault across severities through the environment.

    Each (fault, severity) cell deploys a fresh, seeded
    :class:`~repro.faults.FaultCell` -- the sensor-side injector and/or
    faulty channel -- around each subject's attacked test stream, with an
    SQI gate on the base station so unusable windows become *abstentions*:
    counted coverage loss, never silent skips.  Per cell the study reports

    - ``accuracy_on_decided`` -- accuracy over the windows the detector
      actually decided (NaN when the fault starved it of every window);
    - ``coverage`` -- decided windows / sent windows (loss + abstention);
    - ``abstain_rate`` -- the quality gate's share of the coverage loss;
    - ``delivery_rate`` and the corrupted/duplicated packet counts.

    Detectors are trained once per subject (the experiment cache makes the
    repeated ``train_detector`` calls free) and reused across all cells.
    """
    names = tuple(faults) if faults is not None else fault_names()
    dataset = make_dataset(config)

    materials = []
    for index, subject in enumerate(dataset.subjects):
        detector = train_detector(dataset, subject, "simplified", config)
        record, donors = _test_materials(dataset, subject, config)
        materials.append((index, detector, record, donors))

    rows = []
    for name in names:
        for severity in severities:
            accs: list[float] = []
            covs: list[float] = []
            abst: list[float] = []
            deliv: list[float] = []
            corrupted = duplicated = 0
            for index, detector, record, donors in materials:
                cell = build_fault_cell(
                    name, float(severity), seed=1000 + index
                )
                environment = WIoTEnvironment(
                    detector,
                    channel=cell.channel,
                    quality_gate=SignalQualityIndex(),
                )
                summary = environment.run(
                    record,
                    attack=ReplacementAttack(donors),
                    attack_after_s=config.test_duration_s / 2,
                    rng=np.random.default_rng([7, index]),
                    sensor_faults=cell.injector,
                )
                covs.append(summary.coverage)
                abst.append(summary.abstain_rate)
                deliv.append(summary.channel_delivery_rate)
                corrupted += summary.n_packets_corrupted
                duplicated += summary.n_packets_duplicated
                if summary.report is not None:
                    accs.append(summary.report.accuracy)
            rows.append(
                {
                    "fault": name,
                    "severity": float(severity),
                    "accuracy_on_decided": (
                        float(np.mean(accs)) if accs else float("nan")
                    ),
                    "coverage": float(np.mean(covs)),
                    "abstain_rate": float(np.mean(abst)),
                    "delivery_rate": float(np.mean(deliv)),
                    "n_packets_corrupted": int(corrupted),
                    "n_packets_duplicated": int(duplicated),
                }
            )
    return rows


def format_fault_matrix(rows: Sequence[dict[str, Any]]) -> str:
    """Render fault-matrix rows as an aligned text table."""
    header = (
        f"{'fault':<16} {'sev':>5} {'accuracy':>9} {'coverage':>9} "
        f"{'abstain':>8} {'deliver':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        accuracy = row["accuracy_on_decided"]
        accuracy_text = "--" if np.isnan(accuracy) else f"{accuracy:.3f}"
        lines.append(
            f"{row['fault']:<16} {row['severity']:>5.2f} "
            f"{accuracy_text:>9} {row['coverage']:>9.3f} "
            f"{row['abstain_rate']:>8.3f} {row['delivery_rate']:>8.3f}"
        )
    return "\n".join(lines)


def artifact_load_study(
    config: ExperimentConfig,
    artifact_rates: Sequence[float] = (0.0, 2.0, 6.0, 12.0),
) -> list[dict[str, Any]]:
    """Sweep the per-minute motion-artifact rate of the *test* subjects.

    Models deteriorating wear conditions (loose electrodes, exercise):
    training happened under nominal conditions, evaluation under the swept
    rate, so the model faces a distribution shift.
    """
    dataset = make_dataset(config)
    rows = []
    for rate in artifact_rates:
        reports = []
        for index, subject in enumerate(dataset.subjects):
            detector = train_detector(dataset, subject, "simplified", config)
            noisy_subject = replace(
                subject,
                ecg_artifact_rate=float(rate),
                abp_artifact_rate=float(rate) / 2.0,
            )
            record = dataset.record(
                noisy_subject, config.test_duration_s, purpose="test"
            )
            if config.peak_source == "detected":
                record = record.redetect_peaks()
            others = [s for s in dataset.subjects if s is not subject]
            donors = [
                dataset.record(d, config.donor_duration_s, purpose="test")
                for d in others[: config.n_test_donors]
            ]
            scenario = AttackScenario(
                ReplacementAttack(donors),
                window_s=config.window_s,
                altered_fraction=config.altered_fraction,
            )
            stream = scenario.build(record, np.random.default_rng([11, index]))
            reports.append(detector.evaluate(stream))
        mean = mean_report(reports)
        rows.append(
            {
                "artifact_rate_per_min": float(rate),
                "accuracy": mean.accuracy,
                "fp_rate": mean.false_positive_rate,
                "fn_rate": mean.false_negative_rate,
            }
        )
    return rows


def debounce_study(
    config: ExperimentConfig,
    settings: Sequence[tuple[int, int]] = ((1, 1), (2, 3), (3, 4)),
) -> list[dict[str, Any]]:
    """Compare per-window alerting with k-of-n debounced episodes.

    The stream alternates genuine and attacked halves; window-level
    predictions are scored as usual, while episode openings inside the
    genuine half count as false episodes.
    """
    dataset = make_dataset(config)
    rows = []
    for votes_needed, vote_window in settings:
        window_reports = []
        false_episodes = []
        attacks_caught = []
        for index, subject in enumerate(dataset.subjects):
            detector = train_detector(dataset, subject, "simplified", config)
            stream = build_stream(dataset, subject, config)
            # Re-order into genuine-then-attacked halves for episode truth.
            genuine = [w for w in stream.windows if not w.altered]
            altered = [w for w in stream.windows if w.altered]
            streaming = StreamingDetector(
                detector, votes_needed=votes_needed, vote_window=vote_window
            )
            # Chunked batch scoring (bit-identical to the per-window loop);
            # flush=True closes an attack still in progress at end-of-stream.
            streaming.process_stream(genuine + altered, flush=True)

            boundary = len(genuine)
            false_episodes.append(
                sum(1 for e in streaming.episodes if e.start_index < boundary)
            )
            attacks_caught.append(
                any(e.end_index >= boundary for e in streaming.episodes)
            )
            predictions = detector.classify_stream(genuine + altered)
            labels = np.array([False] * len(genuine) + [True] * len(altered))
            window_reports.append(score_predictions(predictions, labels))
        mean = mean_report(window_reports)
        rows.append(
            {
                "votes_needed": votes_needed,
                "vote_window": vote_window,
                "window_accuracy": mean.accuracy,
                "false_episodes_per_run": float(np.mean(false_episodes)),
                "attack_catch_rate": float(np.mean(attacks_caught)),
            }
        )
    return rows
