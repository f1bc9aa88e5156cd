"""The native core against NumPy: scoring throughput and SVM training.

Two measurements back the native study's reports.  :func:`measure_tier`
scores one long genuine stream with a fitted tier on both platforms
(``native_speedup.txt``); :func:`measure_smo` fits one Simplified
training set with the C SMO solver and with the NumPy loop
(``native_smo.txt``).  Both check bit-identity before they report speed:
a fast wrong answer is no speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.detector import SIFTDetector
from repro.core.training import build_training_set
from repro.core.versions import DetectorVersion
from repro.experiments.reporting import format_table
from repro.ml.svm import SVC, _canonical_labels, _smo_numpy
from repro.native import native_status, smo
from repro.signals import SyntheticFantasia, iter_windows

__all__ = [
    "SmoSpeedup",
    "format_native_speedup",
    "format_smo",
    "measure_smo",
    "measure_tier",
]


def measure_tier(
    version_name: str, seed: int, stream_s: float, train_s: float
) -> dict[str, Any]:
    """One tier's NumPy and native windows/sec on the same genuine stream.

    A host without a toolchain (or without SVML for Original) still
    yields a valid payload: ``available`` is false and ``reason`` says
    why there is no native lane.
    """
    data = SyntheticFantasia(n_subjects=4, seed=seed)
    victim = data.subjects[0]
    others = data.subjects[1:]
    detector = SIFTDetector(version=version_name)
    detector.fit(
        data.record(victim, train_s, purpose="train"),
        [data.record(s, train_s / 2, purpose="train") for s in others],
    )
    record = data.record(victim, stream_s, purpose="test")
    windows = list(iter_windows(record, window_s=3.0))

    numpy_values, numpy_wall = _best_of(lambda: detector.decision_values(windows))
    payload: dict[str, Any] = {
        "n_windows": len(windows),
        "numpy_windows_per_s": round(len(windows) / numpy_wall, 3),
    }
    available, reason = native_status(version_name)
    payload["available"] = available
    if not available:
        payload.update(reason=reason, speedup=None, bit_identical=None)
        return payload
    detector.platform = "native"
    if not detector.native_active:  # build failed; reason captured
        payload.update(
            available=False,
            reason=str(detector.native_error),
            speedup=None,
            bit_identical=None,
        )
        return payload
    native_values, native_wall = _best_of(lambda: detector.decision_values(windows))
    payload.update(
        reason="ok",
        bit_identical=bool(np.array_equal(numpy_values, native_values)),
        native_windows_per_s=round(len(windows) / native_wall, 3),
        speedup=round(numpy_wall / native_wall, 3),
    )
    return payload


@dataclass(frozen=True)
class SmoSpeedup:
    """The native SMO solver against the NumPy loop on one training set.

    ``reason`` is ``"ok"`` when the native kernel ran, else why there is
    no native lane (and the comparison fields keep their defaults).
    """

    n_samples: int
    n_features: int
    reason: str
    bit_identical: bool = False
    n_iter: int = 0
    numpy_fit_ms: float = 0.0
    native_fit_ms: float = 0.0

    @property
    def speedup(self) -> float:
        return self.numpy_fit_ms / self.native_fit_ms


def measure_smo(seed: int, train_s: float, rounds: int) -> SmoSpeedup:
    """Fit one Simplified training set with ``smo.solve`` and ``_smo_numpy``."""
    data = SyntheticFantasia(n_subjects=4, seed=seed)
    victim, donors = data.subjects[0], data.subjects[1:]
    detector = SIFTDetector(version=DetectorVersion.SIMPLIFIED)
    training_set = build_training_set(
        detector.extractor,
        data.record(victim, train_s, purpose="train"),
        [data.record(s, 120.0, purpose="train") for s in donors],
    )
    X = detector.scaler.fit_transform(training_set.X)
    y = _canonical_labels(training_set.y)
    svc = SVC()
    K = svc.kernel(X, X)
    knobs = (svc.C, svc.tol, svc.max_passes, svc.max_iter)

    def fit(solver: Callable[..., Any]) -> Callable[[], Any]:
        return lambda: solver(K, y, *knobs, np.random.default_rng(svc.seed))

    shape = {"n_samples": X.shape[0], "n_features": X.shape[1]}
    native, native_s = _best_of(fit(smo.solve), rounds)
    if native is None:
        return SmoSpeedup(**shape, reason="native SMO kernel unavailable")
    reference, numpy_s = _best_of(fit(_smo_numpy), rounds)
    return SmoSpeedup(
        **shape,
        reason="ok",
        bit_identical=(
            native[0].tobytes() == reference[0].tobytes()
            and native[1:] == reference[1:]
        ),
        n_iter=native[2],
        numpy_fit_ms=round(numpy_s * 1e3, 3),
        native_fit_ms=round(native_s * 1e3, 3),
    )


def _best_of(fn: Callable[[], Any], rounds: int = 3) -> tuple[Any, float]:
    """``fn``'s result and the fastest of ``rounds`` timed calls, in seconds."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def format_native_speedup(tiers: dict[str, dict[str, Any]]) -> str:
    """``native_speedup.txt``: one row per tier, keyed by tier name."""
    rows = []
    for name, payload in tiers.items():
        if payload.get("available"):
            rows.append(
                [
                    name,
                    f"{payload['numpy_windows_per_s']:.0f}",
                    f"{payload['native_windows_per_s']:.0f}",
                    f"{payload['speedup']:.2f}x",
                    "yes" if payload["bit_identical"] else "NO",
                ]
            )
        else:
            rows.append(
                [name, f"{payload['numpy_windows_per_s']:.0f}", "-", "-",
                 payload.get("reason", "unavailable")]
            )
    return format_table(
        ["tier", "numpy w/s", "native w/s", "speedup", "bit-identical"],
        rows,
        title="Native scoring core: C hot path vs NumPy",
    )


def format_smo(fit: SmoSpeedup) -> str:
    """``native_smo.txt``: the one training-set comparison."""
    shape = f"{fit.n_samples}x{fit.n_features}"
    if fit.reason != "ok":
        row = [shape, "-", "-", "-", "-", fit.reason]
    else:
        row = [
            shape,
            f"{fit.n_iter}",
            f"{fit.numpy_fit_ms:.0f}",
            f"{fit.native_fit_ms:.0f}",
            f"{fit.speedup:.2f}x",
            "yes" if fit.bit_identical else "NO",
        ]
    return format_table(
        [
            "training set", "iterations", "numpy ms", "native ms", "speedup",
            "bit-identical",
        ],
        [row],
        title="Native SVM training: C SMO solver vs NumPy loop (Simplified tier)",
    )
