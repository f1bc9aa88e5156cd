"""Per-window reference formulas: the test oracle for feature extraction.

The package computes every feature in batches
(:mod:`repro.core.features.batched`).  This module keeps the same
formulas written the plain way -- one window, one portrait, one helper
per Table I feature -- so the batch, chunk, native and fixed-point
parity suites have an independent reference to compare against
bit-for-bit.  It is safety code: nothing in ``src/`` imports it.

Averages follow the **sequential-mean contract**: values accumulate left
to right, exactly like the device C loop, rather than via ``np.mean``'s
pairwise summation (which re-associates once an array has 8+ elements).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.features import (
    FeatureExtractor,
    OriginalFeatureExtractor,
    ReducedFeatureExtractor,
    SimplifiedFeatureExtractor,
)
from repro.core.features.simplified import SLOPE_EPSILON
from repro.signals.dataset import SignalWindow
from repro.signals.peaks import match_peaks

# ----------------------------------------------------------------------
# Portrait
# ----------------------------------------------------------------------


def normalize_signal(signal: np.ndarray) -> np.ndarray:
    """Min-max normalize a window to [0, 1]; a constant window maps to 0.5."""
    signal = np.asarray(signal, dtype=np.float64)
    low = float(np.min(signal))
    high = float(np.max(signal))
    if high <= low:
        return np.full(signal.shape, 0.5)
    return (signal - low) / (high - low)


@dataclass(frozen=True)
class Portrait:
    """One window's normalized portrait with its characteristic points."""

    x: np.ndarray
    y: np.ndarray
    r_peaks: np.ndarray
    systolic_peaks: np.ndarray
    peak_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("portrait coordinates must be equal-length 1-D arrays")

    @property
    def n_points(self) -> int:
        return int(self.x.size)

    def r_peak_points(self) -> np.ndarray:
        """Portrait coordinates of the R peaks, shape (m, 2)."""
        return np.column_stack([self.x[self.r_peaks], self.y[self.r_peaks]])

    def systolic_peak_points(self) -> np.ndarray:
        """Portrait coordinates of the systolic peaks, shape (k, 2)."""
        return np.column_stack(
            [self.x[self.systolic_peaks], self.y[self.systolic_peaks]]
        )

    def paired_peak_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(R points, matching systolic points), both shape (p, 2)."""
        if not self.peak_pairs:
            empty = np.empty((0, 2))
            return empty, empty
        r_idx = np.array([pair[0] for pair in self.peak_pairs], dtype=np.intp)
        s_idx = np.array([pair[1] for pair in self.peak_pairs], dtype=np.intp)
        r_points = np.column_stack([self.x[r_idx], self.y[r_idx]])
        s_points = np.column_stack([self.x[s_idx], self.y[s_idx]])
        return r_points, s_points

    def occupancy_matrix(self, n: int = 50) -> np.ndarray:
        """The n x n count matrix: rows index ABP (x), columns ECG (y)."""
        if n < 1:
            raise ValueError("grid size must be >= 1")
        col = np.minimum((self.y * n).astype(np.intp), n - 1)
        row = np.minimum((self.x * n).astype(np.intp), n - 1)
        matrix = np.zeros((n, n), dtype=np.int64)
        np.add.at(matrix, (row, col), 1)
        return matrix


def build_portrait(window: SignalWindow, max_lag_s: float = 0.6) -> Portrait:
    """Build the portrait of one signal window."""
    pairs = match_peaks(
        window.r_peaks, window.systolic_peaks, window.sample_rate, max_lag_s
    )
    return Portrait(
        x=normalize_signal(window.abp),
        y=normalize_signal(window.ecg),
        r_peaks=np.asarray(window.r_peaks, dtype=np.intp),
        systolic_peaks=np.asarray(window.systolic_peaks, dtype=np.intp),
        peak_pairs=tuple(pairs),
    )


# ----------------------------------------------------------------------
# Matrix features
# ----------------------------------------------------------------------


def spatial_filling_index(matrix: np.ndarray) -> float:
    """``n^2 * sum((c_ij / N)^2)``; 0.0 for an empty matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("occupancy matrix must be square")
    total = matrix.sum()
    if total == 0:
        return 0.0
    p = matrix / total
    return float(matrix.shape[0] ** 2 * np.sum(p**2))


def column_averages(matrix: np.ndarray) -> np.ndarray:
    """Mean of each column of C (averaging over rows)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("occupancy matrix must be 2-D")
    return matrix.mean(axis=0)


def auc_trapezoid(curve: np.ndarray) -> float:
    """Trapezoidal area under a unit-spaced curve (the Original build)."""
    curve = np.asarray(curve, dtype=np.float64)
    if curve.size < 2:
        return 0.0
    return float(np.trapezoid(curve))


def auc_composite(curve: np.ndarray) -> float:
    """The paper's composite-sum integral: ``0.5 * sum(f_k + f_{k+1})``."""
    curve = np.asarray(curve, dtype=np.float64)
    if curve.size < 2:
        return 0.0
    return float(0.5 * np.sum(curve[:-1] + curve[1:]))


# ----------------------------------------------------------------------
# Geometric features
# ----------------------------------------------------------------------


def sequential_mean(values: np.ndarray) -> float:
    """Left-to-right mean of a non-empty 1-D array (the device loop's order)."""
    values = np.asarray(values, dtype=np.float64)
    total = np.float64(0.0)
    for value in values:
        total = total + value
    return float(total / values.size)


def _points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.size and (points.ndim != 2 or points.shape[1] != 2):
        raise ValueError("points must have shape (m, 2)")
    return points


def _pairs(r_points: np.ndarray, s_points: np.ndarray) -> np.ndarray:
    r_points = np.asarray(r_points, dtype=np.float64)
    s_points = np.asarray(s_points, dtype=np.float64)
    if r_points.shape != s_points.shape:
        raise ValueError("paired point arrays must have equal shape")
    return r_points - s_points


def average_peak_angle(points: np.ndarray) -> float:
    """Mean ``atan2(y, x)`` over peak points, 0.0 when there are none."""
    points = _points(points)
    if points.size == 0:
        return 0.0
    return sequential_mean(np.arctan2(points[:, 1], points[:, 0]))


def average_peak_distance(points: np.ndarray) -> float:
    """Mean Euclidean distance from peak points to the origin."""
    points = _points(points)
    if points.size == 0:
        return 0.0
    return sequential_mean(np.sqrt(points[:, 0] ** 2 + points[:, 1] ** 2))


def average_paired_distance(r_points: np.ndarray, s_points: np.ndarray) -> float:
    """Mean distance between R peaks and their corresponding systolic peaks."""
    deltas = _pairs(r_points, s_points)
    if deltas.size == 0:
        return 0.0
    return sequential_mean(np.sqrt(deltas[:, 0] ** 2 + deltas[:, 1] ** 2))


def average_peak_slope(points: np.ndarray) -> float:
    """Mean ``y / max(x, SLOPE_EPSILON)`` over peak points, 0.0 if none."""
    points = _points(points)
    if points.size == 0:
        return 0.0
    return sequential_mean(points[:, 1] / np.maximum(points[:, 0], SLOPE_EPSILON))


def average_squared_peak_distance(points: np.ndarray) -> float:
    """Mean ``x^2 + y^2`` over peak points, 0.0 when there are none."""
    points = _points(points)
    if points.size == 0:
        return 0.0
    return sequential_mean(points[:, 0] ** 2 + points[:, 1] ** 2)


def average_squared_paired_distance(
    r_points: np.ndarray, s_points: np.ndarray
) -> float:
    """Mean ``(xr - xs)^2 + (yr - ys)^2`` over corresponding peak pairs."""
    deltas = _pairs(r_points, s_points)
    if deltas.size == 0:
        return 0.0
    return sequential_mean(deltas[:, 0] ** 2 + deltas[:, 1] ** 2)


# ----------------------------------------------------------------------
# The three feature vectors (Table I)
# ----------------------------------------------------------------------


def extract_original(portrait: Portrait, grid_n: int = 50) -> np.ndarray:
    matrix = portrait.occupancy_matrix(grid_n)
    col_avg = column_averages(matrix)
    r_points = portrait.r_peak_points()
    s_points = portrait.systolic_peak_points()
    paired_r, paired_s = portrait.paired_peak_points()
    return np.array(
        [
            spatial_filling_index(matrix),
            float(np.std(col_avg)),
            auc_trapezoid(col_avg),
            average_peak_angle(r_points),
            average_peak_angle(s_points),
            average_peak_distance(r_points),
            average_peak_distance(s_points),
            average_paired_distance(paired_r, paired_s),
        ]
    )


def extract_reduced(portrait: Portrait, grid_n: int = 50) -> np.ndarray:
    r_points = portrait.r_peak_points()
    s_points = portrait.systolic_peak_points()
    paired_r, paired_s = portrait.paired_peak_points()
    return np.array(
        [
            average_peak_slope(r_points),
            average_peak_slope(s_points),
            average_squared_peak_distance(r_points),
            average_squared_peak_distance(s_points),
            average_squared_paired_distance(paired_r, paired_s),
        ]
    )


def extract_simplified(portrait: Portrait, grid_n: int = 50) -> np.ndarray:
    matrix = portrait.occupancy_matrix(grid_n)
    col_avg = column_averages(matrix)
    return np.concatenate(
        [
            [
                spatial_filling_index(matrix),
                float(np.var(col_avg)),
                auc_composite(col_avg),
            ],
            extract_reduced(portrait),
        ]
    )


_TIERS = {
    OriginalFeatureExtractor: extract_original,
    SimplifiedFeatureExtractor: extract_simplified,
    ReducedFeatureExtractor: extract_reduced,
}


def features(extractor: FeatureExtractor, window: SignalWindow) -> np.ndarray:
    """The reference feature vector of one window for ``extractor``'s tier."""
    return _TIERS[type(extractor)](build_portrait(window), extractor.grid_n)


def feature_matrix(extractor: FeatureExtractor, windows) -> np.ndarray:
    """Reference features of every window, one row each, in input order."""
    windows = list(getattr(windows, "windows", windows))
    if not windows:
        return np.empty((0, extractor.n_features))
    return np.vstack([features(extractor, w) for w in windows])


def decision_value(detector, window: SignalWindow) -> float:
    """The reference score of one window: oracle features, scaler, SVM."""
    standardized = detector.scaler.transform(features(detector.extractor, window))
    return float(detector.svc.decision_function(standardized)[0])
