"""Per-channel reference formulas: the test oracle for the SQI gate.

:meth:`repro.signals.quality.SignalQualityIndex.assess` scores both
channels of a window at once, with one partition for the median and the
98th percentile of the first-difference energy.  This module keeps the
same checks written the plain way -- one channel at a time, through
``np.median`` and ``np.percentile`` -- so the property suite has an
independent reference to compare against bit-for-bit.  It is safety
code: nothing in ``src/`` imports it.

The one rule added on top of the plain formulas is the abstain rule: a
burst ratio that comes out NaN (a NaN sample, or ``inf - inf`` in the
energy) scores 0, so the window is withheld instead of raising.
"""

from __future__ import annotations

import numpy as np

from repro.signals.dataset import SignalWindow
from repro.signals.quality import QualityReport, SignalQualityIndex


def clipping_score(gate: SignalQualityIndex, signal: np.ndarray) -> float:
    low, high = float(np.min(signal)), float(np.max(signal))
    if high <= low or not np.isfinite(high - low):
        return 0.0  # flatline, or an infinite sample: no usable range
    span = high - low
    pinned = np.mean(
        (signal <= low + 0.01 * span) | (signal >= high - 0.01 * span)
    )
    # A healthy oscillating signal touches its extremes rarely.
    excess = max(0.0, float(pinned) - gate.clipping_tolerance)
    return float(np.clip(1.0 - excess / 0.25, 0.0, 1.0))


def burst_score(gate: SignalQualityIndex, signal: np.ndarray) -> float:
    diff = np.diff(signal)
    energy = diff * diff
    median = float(np.median(energy))
    if median <= 0:
        return 0.0
    ratio = float(np.percentile(energy, 98)) / median
    if np.isnan(ratio):
        return 0.0  # the abstain rule
    if ratio <= gate.burst_ratio_limit:
        return 1.0
    return float(
        np.clip(
            1.0 - (ratio - gate.burst_ratio_limit) / (4 * gate.burst_ratio_limit),
            0.0,
            1.0,
        )
    )


def assess(gate: SignalQualityIndex, window: SignalWindow) -> QualityReport:
    """Score one window; the SQI is the minimum of the channel checks."""
    clipping = min(clipping_score(gate, window.ecg), clipping_score(gate, window.abp))
    burst = min(burst_score(gate, window.ecg), burst_score(gate, window.abp))
    beats = gate._beat_score(window)
    sqi = min(clipping, burst, beats)
    return QualityReport(
        sqi=sqi,
        usable=sqi >= gate.threshold,
        clipping_score=clipping,
        burst_score=burst,
        beat_score=beats,
    )
