"""The SIFT detector: per-user train / classify / deploy API.

One :class:`SIFTDetector` instance is one *version* of the detector trained
for one wearer.  ``fit`` runs the paper's offline training step;
``decision_values`` / ``classify_stream`` are the reference ("MATLAB")
detection path, and ``classify_window`` scores one window as a batch of
one; ``deploy`` exports the fixed-point model that the simulated Amulet
app executes.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.attacks.scenario import LabeledStream
from repro.core.alerts import Alert, AlertLog
from repro.core.features.base import FeatureExtractor
from repro.core.features.batched import iter_window_chunks
from repro.core.portrait import stream_positions
from repro.core.training import TrainingSet, build_training_set
from repro.core.versions import DetectorVersion, make_extractor
from repro.ml.kernels import make_kernel
from repro.ml.metrics import DetectionReport, score_predictions
from repro.ml.model_codegen import FixedPointLinearModel, export_fixed_point
from repro.ml.scaler import StandardScaler
from repro.ml.svm import SVC
from repro.signals.dataset import Record, SignalWindow

if TYPE_CHECKING:
    from repro.native.backend import NativeScorer

__all__ = ["DEFAULT_CHUNK_SIZE", "PLATFORMS", "SIFTDetector"]

#: Supported scoring platforms: the NumPy reference path, and the
#: generated-C hot path (bit-identical, optional, falls back cleanly).
PLATFORMS = ("numpy", "native")

#: Windows scored per chunk by the bounded-memory stream entry points.
#: 256 three-second windows are ~12.8 minutes of signal; the transient
#: feature-pipeline tensors for a chunk stay in the ten-megabyte range
#: regardless of how long the input stream is.
DEFAULT_CHUNK_SIZE = 256


class SIFTDetector:
    """A trainable, deployable SIFT detector for one wearer.

    Parameters
    ----------
    version:
        Which of the three builds to use; accepts a
        :class:`~repro.core.versions.DetectorVersion` or its string name.
    window_s:
        Detection window size ``w``; the paper uses 3 seconds.
    grid_n:
        Occupancy-grid side length for the matrix features (paper: 50).
    C:
        SVM soft-margin penalty.
    kernel:
        ``"linear"`` (the paper's deployed choice) or ``"rbf"``.
    gamma:
        RBF kernel width; ignored by the linear kernel but always threaded
        through so an ``"rbf"`` detector never silently runs on the
        default.
    seed:
        Seed for the SMO solver's internal randomness.
    platform:
        ``"numpy"`` (the reference path) or ``"native"`` -- score streams
        through the generated-C hot path (:mod:`repro.native`).  Native
        scoring is bit-identical to the NumPy path and falls back to it
        (with a ``RuntimeWarning``) when the host cannot build or validate
        the extension.
    """

    def __init__(
        self,
        version: DetectorVersion | str = DetectorVersion.ORIGINAL,
        window_s: float = 3.0,
        grid_n: int = 50,
        C: float = 1.0,
        kernel: str = "linear",
        gamma: float = 0.5,
        seed: int = 0,
        platform: str = "numpy",
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if platform not in PLATFORMS:
            raise ValueError(f"platform must be one of {PLATFORMS}, got {platform!r}")
        if isinstance(version, str):
            version = DetectorVersion.from_name(version)
        self.version = version
        self.window_s = float(window_s)
        self.grid_n = int(grid_n)
        self.kernel_name = kernel
        self.gamma = float(gamma)
        self.platform = platform
        self.extractor: FeatureExtractor = make_extractor(version, grid_n=grid_n)
        self.scaler = StandardScaler()
        self.svc = SVC(C=C, kernel=make_kernel(kernel, gamma=gamma), seed=seed)
        self.subject_id: str | None = None
        self._fitted = False
        self._native_scorer: "NativeScorer | None" = None
        self._native_error: str | None = None

    # ------------------------------------------------------------------
    # Training (offline; "need not be done on amulet platform itself")
    # ------------------------------------------------------------------

    def fit(
        self,
        training_record: Record,
        donor_records: list[Record],
        stride_s: float | None = None,
        rng: np.random.Generator | None = None,
        attacks: list | None = None,
    ) -> "SIFTDetector":
        """Train the per-user model from a training recording and donors.

        ``attacks`` widens the positive class beyond the paper's default
        cross-subject replacement (see
        :func:`~repro.core.training.build_training_set`).
        """
        training_set = build_training_set(
            self.extractor,
            training_record,
            donor_records,
            window_s=self.window_s,
            stride_s=stride_s,
            rng=rng,
            attacks=attacks,
        )
        return self.fit_training_set(training_set, subject_id=training_record.subject_id)

    def fit_training_set(
        self, training_set: TrainingSet, subject_id: str | None = None
    ) -> "SIFTDetector":
        """Train directly from a prepared :class:`TrainingSet`."""
        if training_set.X.shape[1] != self.extractor.n_features:
            raise ValueError(
                f"training set has {training_set.X.shape[1]} features but the "
                f"{self.version.value} extractor produces {self.extractor.n_features}"
            )
        X = self.scaler.fit_transform(training_set.X)
        self.svc.fit(X, training_set.y)
        self.subject_id = subject_id
        self._fitted = True
        # The native scorer bakes the model constants into generated C, so
        # refitting invalidates it (and clears any stale failure reason).
        self._native_scorer = None
        self._native_error = None
        return self

    # ------------------------------------------------------------------
    # Native platform plumbing
    # ------------------------------------------------------------------

    @property
    def native_active(self) -> bool:
        """Whether scoring currently runs through the generated-C path."""
        return self._native() is not None

    @property
    def native_error(self) -> str | None:
        """Why the native path is inactive (``None`` when active/unused)."""
        return self._native_error

    def _native(self) -> "NativeScorer | None":
        """The lazily-built native scorer, or ``None`` (numpy fallback)."""
        if self.platform != "native" or not self._fitted:
            return None
        if self._native_scorer is None and self._native_error is None:
            from repro.native.backend import NativeScorer, NativeUnavailableError

            try:
                if self.svc.coef_ is None:
                    raise NativeUnavailableError(
                        "native scoring requires a linear kernel "
                        "(no primal weights to generate code from)"
                    )
                self._native_scorer = NativeScorer(
                    self.version,
                    self.grid_n,
                    self.svc.coef_,
                    float(self.svc.intercept_),
                    self.scaler.mean_,
                    self.scaler.scale_,
                    window_s=self.window_s,
                    fallback=self._numpy_decision_values,
                )
            except NativeUnavailableError as exc:
                self._native_error = str(exc)
                warnings.warn(
                    f"native scoring backend unavailable ({exc}); "
                    "falling back to the numpy path",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return self._native_scorer

    def __getstate__(self) -> dict:
        """Drop the compiled-library handle; it cannot cross processes.

        A supervised scoring child (or any unpickling consumer) rebuilds
        the native scorer lazily on first use, hitting the on-disk
        artifact cache rather than recompiling.
        """
        state = self.__dict__.copy()
        state["_native_scorer"] = None
        state["_native_error"] = None
        return state

    # ------------------------------------------------------------------
    # Detection (reference float path)
    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("SIFTDetector is not fitted; call fit() first")

    def decision_value(self, window: SignalWindow) -> float:
        """Signed score of one window; non-negative means "altered".

        A batch of one through :meth:`decision_values`, so it honours the
        scoring platform and equals the window's score in any stream.
        """
        return float(self.decision_values([window])[0])

    def classify_window(self, window: SignalWindow) -> bool:
        """``True`` when the window is classified as altered."""
        return self.decision_value(window) >= 0.0

    def decision_values(self, stream) -> np.ndarray:
        """Signed scores for every window of a stream, in one NumPy pass.

        ``stream`` is a :class:`LabeledStream` or any sequence of windows.
        Features are extracted via the extractor's batch path, then the
        whole matrix is standardized and scored at once.  Because both the
        extractors and :meth:`SVC.decision_function` are batch-size
        invariant, each score equals the window's score alone
        (:meth:`decision_value`) bit-for-bit.

        Peak memory is O(stream); long or unbounded streams should use
        :meth:`iter_decision_values` instead.

        With ``platform="native"`` the same scores come from the
        generated-C hot path -- the parity contract makes the two
        platforms interchangeable mid-stream.
        """
        self._require_fitted()
        scorer = self._native()
        if scorer is not None:
            return scorer.decision_values(list(getattr(stream, "windows", stream)))
        return self._numpy_decision_values(stream)

    def _numpy_decision_values(self, stream) -> np.ndarray:
        """The NumPy reference scoring path (also the native fallback)."""
        features = self.extractor.extract_stream(stream)
        if features.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        return self.svc.decision_function(self.scaler.transform(features))

    def iter_decision_values(
        self, stream, chunk_size: int | None = None
    ) -> Iterator[np.ndarray]:
        """Signed scores for a stream, one fixed-size chunk at a time.

        Yields one float64 array of up to ``chunk_size`` scores per chunk
        (``None`` = :data:`DEFAULT_CHUNK_SIZE`).  Each chunk runs through
        the same batch extractor, standardization and einsum decision as
        :meth:`decision_values`, and both are batch-size invariant, so the
        concatenated chunks are **bit-identical** to the one-shot scores.
        The feature-pipeline intermediates (normalized coordinates,
        occupancy tensors, feature matrix) only ever exist for one chunk,
        so peak memory is O(chunk_size) instead of O(stream) -- the same
        discipline that lets the paper's detector score 3-second windows
        in 2 KB of SRAM.

        ``stream`` may be a :class:`LabeledStream`, a sequence of windows
        or a lazy iterator of windows (which is never materialized in
        full).  Empty streams yield nothing.
        """
        self._require_fitted()
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        scorer = self._native()
        offset = 0
        for chunk in iter_window_chunks(stream, chunk_size):
            with stream_positions(range(offset, offset + len(chunk))):
                if scorer is not None:
                    values = scorer.decision_values(chunk)
                else:
                    values = self._numpy_decision_values(chunk)
            yield values
            offset += len(chunk)

    def classify_stream(self, stream, chunk_size: int | None = None) -> np.ndarray:
        """Boolean predictions for every window (``True`` = altered).

        Scores ride the chunked path (:meth:`iter_decision_values`), so
        transient memory is bounded by ``chunk_size`` windows; the result
        equals ``decision_values(stream) >= 0.0`` bit-for-bit.
        """
        chunks = [
            values >= 0.0
            for values in self.iter_decision_values(stream, chunk_size)
        ]
        if not chunks:
            return np.zeros(0, dtype=bool)
        return np.concatenate(chunks)

    def inspect_stream(
        self, stream: LabeledStream, chunk_size: int | None = None
    ) -> tuple[np.ndarray, AlertLog]:
        """Classify every window of a stream, collecting alerts.

        Scoring is chunked (bounded memory); alert indexes and decision
        values match the one-shot path exactly.
        """
        log = AlertLog()
        prediction_chunks: list[np.ndarray] = []
        offset = 0
        for values in self.iter_decision_values(stream, chunk_size):
            predictions = values >= 0.0
            prediction_chunks.append(predictions)
            for i in np.flatnonzero(predictions):
                index = offset + int(i)
                log.raise_alert(
                    Alert(
                        window_index=index,
                        time_s=index * self.window_s,
                        subject_id=stream.subject_id,
                        version=self.version.value,
                        decision_value=float(values[i]),
                    )
                )
            offset += values.size
        if not prediction_chunks:
            return np.zeros(0, dtype=bool), log
        return np.concatenate(prediction_chunks), log

    def evaluate(
        self, stream: LabeledStream, chunk_size: int | None = None
    ) -> DetectionReport:
        """Score this detector against a labelled stream (chunked)."""
        return score_predictions(
            self.classify_stream(stream, chunk_size), stream.labels
        )

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the fitted model, in bytes.

        Counts the NumPy payload (support vectors, dual/primal
        coefficients, scaler statistics); used by the experiment cache's
        LRU budget to price cached detectors.
        """
        arrays = (
            self.svc.support_vectors_,
            self.svc.dual_coef_,
            self.svc.coef_,
            self.scaler.mean_,
            self.scaler.scale_,
        )
        return int(sum(a.nbytes for a in arrays if a is not None))

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(self, frac_bits: int = 14) -> FixedPointLinearModel:
        """Export the trained model for the on-device MLClassifier state."""
        self._require_fitted()
        return export_fixed_point(self.svc, self.scaler, frac_bits=frac_bits)
