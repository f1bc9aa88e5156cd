"""Benchmarks: the native core vs NumPy, for scoring and for SVM training.

``platform="native"`` compiles the whole scoring hot path (normalize ->
occupancy grid -> features -> decision value) to one C translation unit.
The contract is *bit parity at native speed*: these benches first assert
the native scores are bit-identical to the NumPy path on a long genuine
stream, then assert the throughput win that justifies the backend
(>= 2x windows/sec on every tier; measured ~3-4x on CI-class hardware).

``test_native_smo_speedup`` does the same for training: the C SMO kernel
must fit a Table II-sized (800 x 8) training set bit-identically to the
NumPy loop, and >= 5x faster.

Skips cleanly when the host has no C compiler (or, for the Original
tier, no SVML atan2) -- the fallback path is covered by the unit tests.
"""

import time
from unittest import mock

import numpy as np
import pytest

from repro.core import SIFTDetector
from repro.core.training import build_training_set
from repro.core.versions import DetectorVersion
from repro.ml.svm import SVC
from repro.native import native_status, smo
from repro.signals import SyntheticFantasia, iter_windows

from conftest import run_once

WINDOW_S = 3.0

#: Acceptance floor for the native win.  Dispatch overhead shrinks the
#: margin on the tiny --quick stream, so smoke runs only require a win.
MIN_SPEEDUP = 2.0
MIN_SPEEDUP_QUICK = 1.0

#: The same floors for SVM training (measured ~10x on a 2-core x86 host).
MIN_SMO_SPEEDUP = 5.0
MIN_SMO_SPEEDUP_QUICK = 1.0


@pytest.fixture(scope="module")
def setup(quick):
    """Per-tier fitted detectors plus a long genuine evaluation stream."""
    data = SyntheticFantasia(n_subjects=4, seed=13)
    victim = data.subjects[0]
    others = data.subjects[1:]
    train = data.record(victim, 180.0, purpose="train")
    donors = [data.record(s, 60.0, purpose="train") for s in others[:3]]
    detectors = {}
    for version in DetectorVersion:
        detector = SIFTDetector(version=version)
        detector.fit(train, donors)
        detectors[version] = detector
    stream_s = 120.0 if quick else 900.0
    record = data.record(victim, stream_s, purpose="test")
    windows = list(iter_windows(record, window_s=WINDOW_S))
    return detectors, windows


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("version", list(DetectorVersion), ids=lambda v: v.value)
def test_native_scoring_speedup(benchmark, setup, quick, version):
    """Acceptance: native is bit-identical and >= 2x NumPy windows/sec."""
    available, reason = native_status(version)
    if not available:
        pytest.skip(f"native backend unavailable: {reason}")
    detectors, windows = setup
    detector = detectors[version]

    numpy_values = detector.decision_values(windows)
    detector.platform = "native"
    try:
        assert detector.native_active, detector.native_error

        # Parity before speed -- a fast wrong answer is no speedup.
        native_values = detector.decision_values(windows)
        assert np.array_equal(native_values, numpy_values)

        rounds = 3 if quick else 5
        native_t = _best_of(lambda: detector.decision_values(windows), rounds)
        detector.platform = "numpy"
        numpy_t = _best_of(lambda: detector.decision_values(windows), rounds)
        detector.platform = "native"

        speedup = numpy_t / native_t
        n = len(windows)
        print(
            f"\n{version.value}: numpy {n / numpy_t:.0f} windows/s, "
            f"native {n / native_t:.0f} windows/s, speedup {speedup:.2f}x"
        )

        # The recorded measurement: native wall-clock, with the measured
        # speedup riding along into the trajectory's units_detail.
        run_once(
            benchmark,
            lambda: detector.decision_values(windows),
            study="native",
            unit=version.value,
            sample=lambda values: {
                "n_windows": int(values.size),
                "speedup": round(speedup, 3),
                "numpy_windows_per_s": round(n / numpy_t, 3),
                "native_windows_per_s": round(n / native_t, 3),
            },
        )
        assert speedup >= (MIN_SPEEDUP_QUICK if quick else MIN_SPEEDUP)
    finally:
        detector.platform = "numpy"


def test_native_smo_speedup(benchmark, quick):
    """Acceptance: the C SMO fit is bit-identical and >= 5x the NumPy loop."""
    if smo.load_kernel() is None:
        pytest.skip("native SMO kernel unavailable (no compiler or probe mismatch)")
    data = SyntheticFantasia(n_subjects=4, seed=13)
    victim, others = data.subjects[0], data.subjects[1:]
    detector = SIFTDetector(version=DetectorVersion.SIMPLIFIED)
    training_set = build_training_set(
        detector.extractor,
        data.record(victim, 1200.0, purpose="train"),
        [data.record(s, 120.0, purpose="train") for s in others],
        window_s=WINDOW_S,
    )
    X = detector.scaler.fit_transform(training_set.X)
    y = training_set.y
    assert X.shape == (800, 8)

    def fit() -> SVC:
        return SVC().fit(X, y)

    def fit_numpy() -> SVC:
        with mock.patch.object(smo, "load_kernel", lambda: None):
            return fit()

    # Parity before speed.
    native, reference = fit(), fit_numpy()
    assert native.solver_ == "native" and reference.solver_ == "numpy"
    assert native.intercept_ == reference.intercept_
    for field in ("dual_coef_", "support_vectors_", "coef_"):
        assert getattr(native, field).tobytes() == getattr(reference, field).tobytes()
    assert native.n_iter_ == reference.n_iter_

    rounds = 1 if quick else 3
    native_t = _best_of(fit, rounds)
    numpy_t = _best_of(fit_numpy, rounds)
    speedup = numpy_t / native_t
    print(
        f"\nsmo 800x8: numpy {numpy_t * 1e3:.0f} ms, native {native_t * 1e3:.0f} ms, "
        f"speedup {speedup:.2f}x"
    )
    run_once(
        benchmark,
        fit,
        study="native",
        unit="smo",
        sample=lambda model: {
            "speedup": round(speedup, 3),
            "numpy_fit_ms": round(numpy_t * 1e3, 3),
            "native_fit_ms": round(native_t * 1e3, 3),
            "n_iter": model.n_iter_,
        },
    )
    assert speedup >= (MIN_SMO_SPEEDUP_QUICK if quick else MIN_SMO_SPEEDUP)
