"""Characteristic-point detection: ECG R peaks and ABP systolic peaks.

The paper pre-stores peak indexes alongside the signal snippets on the
Amulet ("we pre-stored ECG and ABP data and their corresponding peak
indexes into the memory"), with peak detection treated as an upstream step.
This module provides that upstream step: a Pan-Tompkins-style R-peak
detector (derivative -> squaring -> moving-window integration -> adaptive
threshold) and a local-maximum systolic-peak detector, both numpy-only.

Both detectors thin their candidates with the same greedy refractory
pass: best score first, a candidate survives if no kept peak lies within
the minimum gap.  The kept peaks stay in a sorted list, so each check
looks at the two ``bisect`` neighbours only and the pass is O(n log n)
(a 20-minute record has ~14,000 candidates).  Each kept cluster is then
moved to the largest raw sample near it, all clusters in one ``argmax``
over a clipped index grid (:func:`_refine`).  The device path
(:mod:`repro.sift_app.device_peaks`) is a separate linear scan.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

__all__ = [
    "detect_r_peaks",
    "detect_systolic_peaks",
    "match_peaks",
    "peak_indices_in_window",
]


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average with edge padding."""
    if width < 1:
        raise ValueError("width must be >= 1")
    kernel = np.ones(width, dtype=np.float64) / width
    return np.convolve(x, kernel, mode="same")


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima (plateau-free signals)."""
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    interior = (x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])
    return np.flatnonzero(interior) + 1


def _enforce_refractory(
    candidates: np.ndarray, scores: np.ndarray, min_gap: int
) -> np.ndarray:
    """Greedily keep the highest-scoring candidates at least ``min_gap`` apart.

    Candidates are visited best score first; one is kept iff it lies at
    least ``min_gap`` from every peak kept so far.  The kept peaks stay
    sorted, so only the nearest kept peak on each side -- the two
    ``bisect`` neighbours -- can be closer than that.
    """
    kept: list[int] = []
    order = np.argsort(scores[candidates])[::-1]
    for idx in candidates[order].tolist():
        pos = bisect_left(kept, idx)
        if (pos == 0 or idx - kept[pos - 1] >= min_gap) and (
            pos == len(kept) or kept[pos] - idx >= min_gap
        ):
            kept.insert(pos, idx)
    return np.asarray(kept, dtype=np.intp)


def _refine(signal: np.ndarray, clusters: np.ndarray, half: int) -> np.ndarray:
    """Each cluster moved to the largest sample of ``signal`` near it.

    Cluster ``c`` looks at ``signal[lo:hi]`` with ``lo = max(0, c - half)``
    and ``hi = min(n, c + half + 1)`` and takes its first largest sample
    (the first NaN, if any), as ``np.argmax`` does.  All clusters are
    refined with one ``argmax`` over a ``(clusters, 2 * half + 1)`` grid of
    indices clipped into the signal: a clipped index repeats the edge
    sample before ``lo`` or after ``hi - 1``, so the first occurrence is
    still the one inside the slice.  Returns the sorted unique peaks.
    """
    offsets = np.arange(-half, half + 1)
    grid = np.clip(clusters[:, None] + offsets, 0, signal.size - 1)
    best = signal[grid].argmax(axis=1)
    return np.unique(grid[np.arange(grid.shape[0]), best])


def detect_r_peaks(
    ecg: np.ndarray,
    sample_rate: float,
    threshold_fraction: float = 0.35,
    refractory_s: float = 0.25,
) -> np.ndarray:
    """Detect R-peak sample indices in an ECG trace.

    A simplified Pan-Tompkins pipeline: the derivative of the signal is
    squared and integrated over a 150 ms window; integration-peak clusters
    above an adaptive threshold mark QRS complexes, and the R peak is
    refined to the signal maximum within +-60 ms of each cluster.

    Parameters
    ----------
    ecg:
        1-D ECG samples.
    sample_rate:
        Sampling rate in Hz.
    threshold_fraction:
        Detection threshold as a fraction of the 98th percentile of the
        integrated energy signal.
    refractory_s:
        Minimum spacing between detected peaks, in seconds.
    """
    ecg = np.asarray(ecg, dtype=np.float64)
    if ecg.ndim != 1:
        raise ValueError("ecg must be a 1-D array")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    if ecg.size < int(0.3 * sample_rate):
        return np.empty(0, dtype=np.intp)

    # Remove slow baseline, then derivative -> squaring -> integration.
    detrended = ecg - _moving_average(ecg, max(3, int(0.6 * sample_rate)))
    derivative = np.gradient(detrended)
    energy = _moving_average(derivative**2, max(3, int(0.15 * sample_rate)))

    threshold = threshold_fraction * np.percentile(energy, 98)
    candidates = _local_maxima(energy)
    candidates = candidates[energy[candidates] > threshold]
    if candidates.size == 0:
        return np.empty(0, dtype=np.intp)

    min_gap = max(1, int(refractory_s * sample_rate))
    clusters = _enforce_refractory(candidates, energy, min_gap)

    # Refine each cluster to the true R location in the detrended signal.
    return _refine(detrended, clusters, max(1, int(0.06 * sample_rate)))


def detect_systolic_peaks(
    abp: np.ndarray,
    sample_rate: float,
    min_spacing_s: float = 0.4,
    prominence_fraction: float = 0.3,
) -> np.ndarray:
    """Detect systolic-peak sample indices in an ABP trace.

    Systolic peaks are the dominant local maxima of the pressure wave; the
    dicrotic wave is rejected by requiring peaks to rise a fraction of the
    pulse pressure above the trace's low percentile and by the refractory
    spacing.
    """
    abp = np.asarray(abp, dtype=np.float64)
    if abp.ndim != 1:
        raise ValueError("abp must be a 1-D array")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    if abp.size < 3:
        return np.empty(0, dtype=np.intp)

    smoothed = _moving_average(abp, max(3, int(0.04 * sample_rate)))
    low, high = np.percentile(smoothed, [5, 98])
    if high <= low:
        return np.empty(0, dtype=np.intp)
    threshold = low + prominence_fraction * (high - low)

    candidates = _local_maxima(smoothed)
    candidates = candidates[smoothed[candidates] > threshold]
    if candidates.size == 0:
        return np.empty(0, dtype=np.intp)
    min_gap = max(1, int(min_spacing_s * sample_rate))
    clusters = _enforce_refractory(candidates, smoothed, min_gap)

    # Refine to the unsmoothed maximum nearby.
    return _refine(abp, clusters, max(1, int(0.03 * sample_rate)))


def match_peaks(
    r_peaks: np.ndarray,
    systolic_peaks: np.ndarray,
    sample_rate: float,
    max_lag_s: float = 0.6,
) -> list[tuple[int, int]]:
    """Pair each R peak with its corresponding systolic peak.

    Physiologically the systolic peak trails its R peak by the pulse transit
    time, so each R peak is matched to the *first* systolic peak that
    follows it within ``max_lag_s``.  R peaks with no such peak (e.g. at the
    window edge, or under attack where alignment is destroyed) are left
    unmatched -- their absence is itself a detection signal.

    Returns
    -------
    List of ``(r_index, systolic_index)`` sample-index pairs.
    """
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    r_peaks = np.asarray(r_peaks, dtype=np.intp)
    systolic_peaks = np.sort(np.asarray(systolic_peaks, dtype=np.intp))
    max_lag = int(max_lag_s * sample_rate)
    pairs: list[tuple[int, int]] = []
    for r in r_peaks:
        pos = int(np.searchsorted(systolic_peaks, r, side="right"))
        if pos < systolic_peaks.size and systolic_peaks[pos] - r <= max_lag:
            pairs.append((int(r), int(systolic_peaks[pos])))
    return pairs


def peak_indices_in_window(
    peaks: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Peak indices falling in ``[start, stop)``, re-based to the window."""
    if stop < start:
        raise ValueError("stop must be >= start")
    peaks = np.asarray(peaks, dtype=np.intp)
    mask = (peaks >= start) & (peaks < stop)
    return peaks[mask] - start
