"""Device-side feature extraction (the FeatureExtraction state's math).

These functions re-implement the three feature extractors the way the
paper's C code computes them on the MSP430 -- through the
:class:`~repro.amulet.restricted.RestrictedMath` environment, which bills
every scalar operation and enforces the libm gate:

* :func:`device_extract_original` -- double precision, ``sqrt``/``atan2``
  from libm, trapezoidal AUC;
* :func:`device_extract_simplified` -- single precision, variance instead
  of std-dev, composite-sum AUC, slopes and squared distances;
* :func:`device_extract_reduced` -- simplified geometric features only;
  the 50x50 matrix is never built and the full-array normalization is
  replaced by normalizing just the handful of peak coordinates.

The occupancy matrix uses saturating uint8 cells (counts clip at 255),
matching the flat ``unsigned char`` array a 2 KB-SRAM device would use.
Feature order matches the reference extractors in
:mod:`repro.core.features`, so reference-trained models deploy unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.amulet.restricted import RestrictedMath
from repro.core.features.simplified import SLOPE_EPSILON
from repro.core.versions import DetectorVersion
from repro.sift_app.payload import DeviceWindow

__all__ = [
    "device_extract_features",
    "device_extract_original",
    "device_extract_reduced",
    "device_extract_simplified",
]

#: Maximum R-peak-to-systolic-peak pairing lag, in seconds (same
#: physiological constant the reference pipeline uses).
_PAIR_MAX_LAG_S = 0.6


def _pair_peaks(
    math: RestrictedMath,
    r_peaks: np.ndarray,
    systolic_peaks: np.ndarray,
    max_lag: int,
) -> list[tuple[int, int]]:
    """Device peak pairing: first systolic peak after each R, within lag.

    A linear merge over two sorted int16 index arrays; billed as the
    integer compare/advance loop it compiles to.
    """
    pairs: list[tuple[int, int]] = []
    s_list = sorted(int(s) for s in systolic_peaks)
    position = 0
    for r in sorted(int(r) for r in r_peaks):
        while position < len(s_list) and s_list[position] <= r:
            position += 1
            math.counter.charge("int_op", 2)
        math.counter.charge("int_op", 2)
        if position < len(s_list) and s_list[position] - r <= max_lag:
            pairs.append((r, s_list[position]))
    return pairs


def _peak_coords(
    math: RestrictedMath,
    window: DeviceWindow,
    indexes: np.ndarray | list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized portrait coordinates (x=ABP, y=ECG) of selected samples.

    Normalizes only the selected samples against the window's min/max --
    the trick that lets the Reduced build skip the two full 1080-element
    normalization passes.
    """
    indexes = np.asarray(indexes, dtype=np.intp)
    abp_min, abp_max = math.min(window.abp), math.max(window.abp)
    ecg_min, ecg_max = math.min(window.ecg), math.max(window.ecg)
    abp_span = max(float(abp_max) - float(abp_min), float(np.finfo(np.float32).tiny))
    ecg_span = max(float(ecg_max) - float(ecg_min), float(np.finfo(np.float32).tiny))
    x = math.div(math.sub(window.abp[indexes], abp_min), abp_span)
    y = math.div(math.sub(window.ecg[indexes], ecg_min), ecg_span)
    return x, y


def _geometric_simplified(
    math: RestrictedMath, window: DeviceWindow
) -> list[float]:
    """The five simplified geometric features (shared by two builds)."""
    max_lag = int(_PAIR_MAX_LAG_S * window.sample_rate)
    pairs = _pair_peaks(math, window.r_peaks, window.systolic_peaks, max_lag)

    def slope_and_sqdist(indexes: np.ndarray) -> tuple[float, float]:
        if indexes.size == 0:
            return 0.0, 0.0
        x, y = _peak_coords(math, window, indexes)
        x_clamped = math.maximum(x, SLOPE_EPSILON)
        slope = float(math.mean(math.div(y, x_clamped)))
        sqdist = float(math.mean(math.add(math.mul(x, x), math.mul(y, y))))
        return slope, sqdist

    r_slope, r_sqdist = slope_and_sqdist(np.asarray(window.r_peaks, dtype=np.intp))
    s_slope, s_sqdist = slope_and_sqdist(
        np.asarray(window.systolic_peaks, dtype=np.intp)
    )

    if pairs:
        r_idx = np.array([p[0] for p in pairs], dtype=np.intp)
        s_idx = np.array([p[1] for p in pairs], dtype=np.intp)
        rx, ry = _peak_coords(math, window, r_idx)
        sx, sy = _peak_coords(math, window, s_idx)
        dx, dy = math.sub(rx, sx), math.sub(ry, sy)
        paired_sqdist = float(
            math.mean(math.add(math.mul(dx, dx), math.mul(dy, dy)))
        )
    else:
        paired_sqdist = 0.0
    return [r_slope, s_slope, r_sqdist, s_sqdist, paired_sqdist]


def _matrix_pipeline(
    math: RestrictedMath, window: DeviceWindow, grid_n: int
) -> tuple[float, np.ndarray]:
    """Normalize both signals, build the matrix; return (SFI, col averages).

    SFI is computed integer-first -- ``n^2 * sum(c^2) / N^2`` -- so the
    2500-cell pass uses the hardware multiplier instead of 2500 software
    float divisions (and yields the same value as the reference formula).
    """
    x = math.normalize_minmax(window.abp)
    y = math.normalize_minmax(window.ecg)
    # Columns index the ECG axis (histogram2d's first argument), matching
    # the reference PortraitBatch.occupancy_matrices orientation.
    matrix = math.histogram2d(y, x, grid_n)
    total = math.int_sum(matrix)
    if total == 0:
        sfi = 0.0
    else:
        sq_sum = math.int_sq_sum(matrix.reshape(-1))
        numerator = math.mul(float(grid_n * grid_n), float(sq_sum))
        sfi = float(math.div(numerator, float(total) * float(total)))
        math.counter.charge("int_mul", 1)  # total * total

    # Column averages: per-column integer sum, one real division each.
    col_avg = np.zeros(grid_n, dtype=np.float64)
    for j in range(grid_n):
        col_sum = math.int_sum(matrix[:, j])
        col_avg[j] = float(math.div(float(col_sum), float(grid_n)))
    return sfi, col_avg


def _auc_pairwise(math: RestrictedMath, curve: np.ndarray) -> float:
    """``0.5 * sum(f_k + f_{k+1})`` -- both builds' AUC boils down to this."""
    if curve.size < 2:
        return 0.0
    inner = math.add(curve[:-1], curve[1:])
    return float(math.mul(0.5, math.sum(inner)))


def device_extract_simplified(
    math: RestrictedMath, window: DeviceWindow, grid_n: int = 50
) -> np.ndarray:
    """Simplified build: 8 features, single precision, no libm."""
    sfi, col_avg = _matrix_pipeline(math, window, grid_n)
    mean = math.mean(col_avg)
    deviations = math.sub(col_avg, mean)
    variance = float(math.mean(math.mul(deviations, deviations)))
    auc = _auc_pairwise(math, col_avg)
    geometric = _geometric_simplified(math, window)
    return np.array([sfi, variance, auc, *geometric], dtype=np.float64)


def device_extract_reduced(
    math: RestrictedMath, window: DeviceWindow, grid_n: int = 50
) -> np.ndarray:
    """Reduced build: the 5 simplified geometric features only."""
    return np.array(_geometric_simplified(math, window), dtype=np.float64)


def device_extract_original(
    math: RestrictedMath, window: DeviceWindow, grid_n: int = 50
) -> np.ndarray:
    """Original build: full features; needs libm (raises without it)."""
    sfi, col_avg = _matrix_pipeline(math, window, grid_n)
    mean = math.mean(col_avg)
    deviations = math.sub(col_avg, mean)
    variance = math.mean(math.mul(deviations, deviations))
    std = float(math.sqrt(variance))
    auc = _auc_pairwise(math, col_avg)

    max_lag = int(_PAIR_MAX_LAG_S * window.sample_rate)
    pairs = _pair_peaks(math, window.r_peaks, window.systolic_peaks, max_lag)

    def angle_and_dist(indexes: np.ndarray) -> tuple[float, float]:
        if indexes.size == 0:
            return 0.0, 0.0
        x, y = _peak_coords(math, window, indexes)
        angle = float(math.mean(math.atan2(y, x)))
        dist = float(
            math.mean(math.sqrt(math.add(math.mul(x, x), math.mul(y, y))))
        )
        return angle, dist

    r_angle, r_dist = angle_and_dist(np.asarray(window.r_peaks, dtype=np.intp))
    s_angle, s_dist = angle_and_dist(
        np.asarray(window.systolic_peaks, dtype=np.intp)
    )
    if pairs:
        r_idx = np.array([p[0] for p in pairs], dtype=np.intp)
        s_idx = np.array([p[1] for p in pairs], dtype=np.intp)
        rx, ry = _peak_coords(math, window, r_idx)
        sx, sy = _peak_coords(math, window, s_idx)
        dx, dy = math.sub(rx, sx), math.sub(ry, sy)
        paired_dist = float(
            math.mean(math.sqrt(math.add(math.mul(dx, dx), math.mul(dy, dy))))
        )
    else:
        paired_dist = 0.0
    return np.array(
        [sfi, std, auc, r_angle, s_angle, r_dist, s_dist, paired_dist],
        dtype=np.float64,
    )


_EXTRACTORS = {
    DetectorVersion.ORIGINAL: device_extract_original,
    DetectorVersion.SIMPLIFIED: device_extract_simplified,
    DetectorVersion.REDUCED: device_extract_reduced,
}


def device_extract_features(
    math: RestrictedMath,
    version: DetectorVersion,
    window: DeviceWindow,
    grid_n: int = 50,
) -> np.ndarray:
    """Dispatch to the extractor of a detector version."""
    return _EXTRACTORS[version](math, window, grid_n=grid_n)
