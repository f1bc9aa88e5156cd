"""The shared experiment pipeline.

One :func:`run_subject` call reproduces the paper's per-subject protocol:
train a user-specific model on Delta = 20 minutes of the subject's data
(positive class from donor subjects' ECG), build the 2-minute / 50 %
altered evaluation stream from *unseen* data, evaluate the reference
("MATLAB") detector, deploy onto the simulated Amulet and evaluate the
device verdicts.  Every experiment module builds on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.attacks.replacement import ReplacementAttack
from repro.attacks.scenario import AttackScenario, LabeledStream
from repro.core.detector import SIFTDetector
from repro.core.versions import DetectorVersion
from repro.experiments.cache import EXPERIMENT_CACHE
from repro.ml.metrics import DetectionReport
from repro.signals.dataset import Record, SyntheticFantasia
from repro.signals.subjects import SubjectParameters
from repro.sift_app.harness import AmuletSIFTRunner

__all__ = [
    "ExperimentConfig",
    "SubjectRunResult",
    "cohort_record_specs",
    "make_dataset",
    "realize_cohort_records",
    "realize_record",
    "record_cache_key",
    "run_subject",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the evaluation protocol (defaults = the paper's)."""

    n_subjects: int = 12
    seed: int = 2017
    sample_rate: float = 360.0
    window_s: float = 3.0
    grid_n: int = 50
    train_duration_s: float = 20.0 * 60.0  # Delta = 20 minutes
    test_duration_s: float = 2.0 * 60.0  # 2 minutes of unseen data
    altered_fraction: float = 0.5  # ~1 minute worth altered
    n_train_donors: int = 3
    n_test_donors: int = 3
    donor_duration_s: float = 120.0
    svm_c: float = 1.0
    kernel: str = "linear"
    #: RBF kernel width; threaded everywhere a kernel is built from this
    #: config so an ``"rbf"`` run never silently uses the default.
    svm_gamma: float = 0.5
    frac_bits: int = 14
    train_stride_s: float | None = None  # None = non-overlapping
    scenario_seed: int = 42
    #: Where the pre-stored peak indexes come from: "detected" runs the
    #: Pan-Tompkins-style detectors over the recordings (what produced the
    #: paper's pre-stored indexes, including their real-data noise);
    #: "true" uses the generator's ground truth.
    peak_source: str = "detected"

    def __post_init__(self) -> None:
        if self.n_subjects < 2:
            raise ValueError(
                "need at least 2 subjects (the attack needs a donor)"
            )
        if self.peak_source not in ("detected", "true"):
            raise ValueError('peak_source must be "detected" or "true"')
        if self.n_train_donors < 1 or self.n_test_donors < 1:
            raise ValueError("need at least one donor for each phase")
        if self.n_train_donors + self.n_test_donors > self.n_subjects - 1:
            raise ValueError(
                "not enough subjects to draw disjoint train and test donors"
            )

    @classmethod
    def quick(cls, **overrides) -> "ExperimentConfig":
        """A small configuration for tests: same protocol, less data."""
        base = cls(
            n_subjects=4,
            train_duration_s=180.0,
            test_duration_s=60.0,
            n_train_donors=2,
            n_test_donors=1,
            donor_duration_s=60.0,
        )
        return replace(base, **overrides)


@dataclass(frozen=True)
class SubjectRunResult:
    """Per-subject outcome: reference and device reports side by side."""

    subject_id: str
    version: DetectorVersion
    reference_report: DetectionReport
    device_report: DetectionReport | None
    n_test_windows: int
    runner: AmuletSIFTRunner | None = field(default=None, repr=False, compare=False)


def make_dataset(config: ExperimentConfig) -> SyntheticFantasia:
    """The synthetic cohort for a configuration."""
    return SyntheticFantasia(
        n_subjects=config.n_subjects,
        seed=config.seed,
        sample_rate=config.sample_rate,
    )


def record_cache_key(
    config: ExperimentConfig, subject_id: str, duration: float, purpose: str
) -> tuple:
    """The experiment-cache key of one realized recording.

    Shared between :func:`realize_record` and
    :func:`cohort_record_specs`: the parent realizes a cohort's records
    under these keys before its workers fork, and the workers look them
    up under the same ones, so the two sides cannot drift.
    """
    return (
        "record",
        config.n_subjects,
        config.seed,
        config.sample_rate,
        config.peak_source,
        subject_id,
        float(duration),
        purpose,
    )


def realize_record(
    dataset: SyntheticFantasia,
    subject: SubjectParameters,
    duration: float,
    purpose: str,
    config: ExperimentConfig,
) -> Record:
    """A recording with peak indexes per the configured peak source.

    Synthesis (and peak re-detection) is deterministic in the cache key,
    so the result is cached: every experiment sharing a config reuses the
    same cohort recordings instead of re-synthesizing them.
    """
    key = record_cache_key(config, subject.subject_id, duration, purpose)

    def build() -> Record:
        record = dataset.record(subject, duration, purpose=purpose)
        if config.peak_source == "detected":
            return record.redetect_peaks()
        return record

    return EXPERIMENT_CACHE.get_or_create(key, build)


def cohort_record_specs(
    config: ExperimentConfig,
    dataset: SyntheticFantasia,
    subjects: "list[int] | None" = None,
) -> dict[tuple, tuple[SubjectParameters, float, str]]:
    """The recordings a cohort run touches, keyed by record cache key.

    For each subject index (default: the whole cohort) this covers what
    :func:`run_subject` consumes: the training and test records plus the
    train-donor and test-donor records of the subject's donor split.
    Values are ``(subject, duration, purpose)`` triples ready to pass to
    :func:`realize_record`.
    """
    indices = (
        range(len(dataset.subjects)) if subjects is None else subjects
    )
    specs: dict[tuple, tuple[SubjectParameters, float, str]] = {}

    def add(subject: SubjectParameters, duration: float, purpose: str) -> None:
        key = record_cache_key(config, subject.subject_id, duration, purpose)
        specs.setdefault(key, (subject, float(duration), purpose))

    for index in indices:
        subject = dataset.subjects[index]
        train_donors, test_donors = _donor_split(dataset, subject, config)
        add(subject, config.train_duration_s, "train")
        add(subject, config.test_duration_s, "test")
        for donor in train_donors:
            add(donor, config.donor_duration_s, "train")
        for donor in test_donors:
            add(donor, config.donor_duration_s, "test")
    return specs


def realize_cohort_records(
    config: ExperimentConfig,
    dataset: SyntheticFantasia,
    subjects: "list[int] | None" = None,
) -> dict[tuple, Record]:
    """Realize the record working set of a cohort run, cache-backed.

    Returns ``{cache_key: Record}`` for every recording :func:`run_subject`
    would touch for the given subject indices (default: the whole
    cohort), per :func:`cohort_record_specs`.
    """
    return {
        key: realize_record(dataset, subject, duration, purpose, config)
        for key, (subject, duration, purpose) in cohort_record_specs(
            config, dataset, subjects
        ).items()
    }


def _donor_split(
    dataset: SyntheticFantasia, subject: SubjectParameters, config: ExperimentConfig
) -> tuple[list[SubjectParameters], list[SubjectParameters]]:
    """Disjoint train/test donor subjects, rotating around the cohort.

    Train donors supply the positive class at training time; *different*
    subjects supply the attack ECG at test time, so the evaluation never
    tests on the donors the model was trained against.
    """
    others = [s for s in dataset.subjects if s is not subject]
    index = dataset.subjects.index(subject)
    rotated = others[index % len(others) :] + others[: index % len(others)]
    train_donors = rotated[: config.n_train_donors]
    test_donors = rotated[
        config.n_train_donors : config.n_train_donors + config.n_test_donors
    ]
    return train_donors, test_donors


def build_stream(
    dataset: SyntheticFantasia,
    subject: SubjectParameters,
    config: ExperimentConfig,
) -> LabeledStream:
    """The subject's labelled 2-minute evaluation stream.

    Cached per (config, subject): stream construction seeds a fresh RNG
    from the config, so rebuilding is deterministic and every version's
    evaluation can share one stream object.
    """

    def build() -> LabeledStream:
        _, test_donors = _donor_split(dataset, subject, config)
        test_record = realize_record(
            dataset, subject, config.test_duration_s, "test", config
        )
        donor_records = [
            realize_record(dataset, donor, config.donor_duration_s, "test", config)
            for donor in test_donors
        ]
        scenario = AttackScenario(
            ReplacementAttack(donor_records),
            window_s=config.window_s,
            altered_fraction=config.altered_fraction,
        )
        rng = np.random.default_rng(
            [config.scenario_seed, dataset.subjects.index(subject)]
        )
        return scenario.build(test_record, rng)

    key = ("stream", config, subject.subject_id)
    return EXPERIMENT_CACHE.get_or_create(key, build)


def train_detector(
    dataset: SyntheticFantasia,
    subject: SubjectParameters,
    version: DetectorVersion | str,
    config: ExperimentConfig,
) -> SIFTDetector:
    """Train one user-specific detector per the paper's protocol.

    Cached per (config, subject, version): training re-seeds every RNG
    from the config, so identical keys would train identical models --
    table2/table3/fig3 and the ablations share them instead.
    """
    if isinstance(version, str):
        version = DetectorVersion.from_name(version)

    def build() -> SIFTDetector:
        train_donors, _ = _donor_split(dataset, subject, config)
        training_record = realize_record(
            dataset, subject, config.train_duration_s, "train", config
        )
        donor_records = [
            realize_record(dataset, donor, config.donor_duration_s, "train", config)
            for donor in train_donors
        ]
        detector = SIFTDetector(
            version=version,
            window_s=config.window_s,
            grid_n=config.grid_n,
            C=config.svm_c,
            kernel=config.kernel,
            gamma=config.svm_gamma,
        )
        rng = np.random.default_rng(
            [config.seed, dataset.subjects.index(subject), 99]
        )
        detector.fit(
            training_record, donor_records, stride_s=config.train_stride_s, rng=rng
        )
        return detector

    key = ("detector", config, subject.subject_id, version.value)
    return EXPERIMENT_CACHE.get_or_create(key, build)


def run_subject(
    dataset: SyntheticFantasia,
    subject: SubjectParameters,
    version: DetectorVersion | str,
    config: ExperimentConfig | None = None,
    with_device: bool = True,
) -> SubjectRunResult:
    """The full per-subject protocol for one detector version."""
    config = config or ExperimentConfig()
    if isinstance(version, str):
        version = DetectorVersion.from_name(version)
    detector = train_detector(dataset, subject, version, config)
    stream = build_stream(dataset, subject, config)
    reference_report = detector.evaluate(stream)

    device_report = None
    runner = None
    if with_device:
        runner = AmuletSIFTRunner(detector, frac_bits=config.frac_bits)
        device_report = runner.run_stream(stream).report
    return SubjectRunResult(
        subject_id=subject.subject_id,
        version=version,
        reference_report=reference_report,
        device_report=device_report,
        n_test_windows=len(stream),
        runner=runner,
    )
