"""Training-set construction.

The paper's training step, per user: slide a ``w``-second window over
``Delta`` time-units of the user's own synchronized ECG+ABP to produce the
*negative* class portraits, and over the same user's ABP paired with
*other* users' ECG to produce the *positive* class -- precisely what a
:class:`~repro.attacks.replacement.ReplacementAttack` applied to the
user's own training windows yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.replacement import ReplacementAttack
from repro.core.features.base import FeatureExtractor
from repro.signals.dataset import Record, iter_windows

__all__ = ["TrainingSet", "build_training_set"]


@dataclass(frozen=True)
class TrainingSet:
    """Feature matrix with boolean labels (``True`` = positive = altered)."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y must have one label per row of X")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names must match X's column count")

    @property
    def n_samples(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_positive(self) -> int:
        return int(np.sum(self.y))

    @property
    def n_negative(self) -> int:
        return self.n_samples - self.n_positive


def build_training_set(
    extractor: FeatureExtractor,
    training_record: Record,
    donor_records: list[Record],
    window_s: float = 3.0,
    stride_s: float | None = None,
    rng: np.random.Generator | None = None,
    attacks: "list | None" = None,
) -> TrainingSet:
    """Build the per-user positive/negative training set.

    Parameters
    ----------
    extractor:
        Feature extractor of the detector version being trained.
    training_record:
        ``Delta`` time-units of the user's own ECG+ABP.
    donor_records:
        Recordings of "several different users" supplying the positive
        class's foreign ECG.
    window_s / stride_s:
        Sliding-window size and stride (default stride = window size).
    rng:
        Randomness for donor-segment selection; defaults to a fixed seed
        so training is reproducible.
    attacks:
        Sensor-hijacking attacks generating the positive class.  Defaults
        to the paper's protocol -- cross-subject replacement alone.
        Passing several attacks trains against a broader threat model:
        positives are drawn round-robin across the list, keeping the
        class balance.
    """
    if attacks is None:
        if not donor_records:
            raise ValueError("positive class requires at least one donor record")
        attacks = [ReplacementAttack(donor_records)]
    if not attacks:
        raise ValueError("at least one attack is required")
    rng = rng if rng is not None else np.random.default_rng(0)

    negatives = list(iter_windows(training_record, window_s, stride_s))
    if not negatives:
        raise ValueError("training record is shorter than one window")
    positives = [
        attacks[i % len(attacks)].alter(w, rng)
        for i, w in enumerate(negatives)
    ]

    X = extractor.extract_stream(negatives + positives)
    y = np.concatenate(
        [np.zeros(len(negatives), dtype=bool), np.ones(len(positives), dtype=bool)]
    )
    return TrainingSet(X=X, y=y, feature_names=extractor.feature_names)
