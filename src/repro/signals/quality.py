"""Signal-quality assessment (SQI) for detection gating.

Wearable practice: classify signal *quality* before classifying signal
*content*, and withhold clinical decisions on garbage windows.  The
robustness study shows motion artifacts inflate SIFT's false-positive
rate; a quality gate converts those would-be false alarms into explicit
"window unusable" outcomes, which a safety UI treats differently from
"attack detected".

The index combines three cheap, libm-free checks per channel:

* **clipping/flatline** -- the fraction of samples pinned at the window
  extremes (saturated front end or disconnected lead);
* **burst energy** -- the ratio of the 98th-percentile to the median of
  the first-difference energy (motion bursts are impulsive; cardiac
  activity is rhythmic);
* **beat plausibility** -- the implied beat count against physiological
  bounds for the window length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.signals.dataset import SignalWindow

__all__ = ["QualityReport", "SignalQualityIndex", "assess_window"]

#: Physiological heart-rate bounds used by the beat-plausibility check.
_MIN_BPM, _MAX_BPM = 25.0, 220.0

#: Symmetric tolerance for float rounding on the [0, 1] score contract.
#: Scores within the epsilon of either boundary are clamped onto it;
#: only a genuinely out-of-range score raises.  (The old check tolerated
#: ``1.0 + 1e-9`` but crashed on ``-1e-12`` -- a numerically noisy SQI
#: component must never take down a live session.)
_SCORE_EPS = 1e-9


@dataclass(frozen=True)
class QualityReport:
    """Per-window quality verdict.

    ``sqi`` is in [0, 1]; 1.0 means all checks passed cleanly.  ``usable``
    applies the configured threshold.  Component scores are retained so a
    UI (or a test) can say *why* a window was rejected.
    """

    sqi: float
    usable: bool
    clipping_score: float
    burst_score: float
    beat_score: float

    def __post_init__(self) -> None:
        for name in ("sqi", "clipping_score", "burst_score", "beat_score"):
            value = float(getattr(self, name))
            if not -_SCORE_EPS <= value <= 1.0 + _SCORE_EPS:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
            object.__setattr__(self, name, min(1.0, max(0.0, value)))


class SignalQualityIndex:
    """Configurable quality assessor for ECG+ABP windows.

    Parameters
    ----------
    threshold:
        Minimum SQI for a window to count as usable.
    clipping_tolerance:
        Fraction of samples allowed at the window extremes before the
        clipping score starts dropping.
    burst_ratio_limit:
        First-difference energy 98th-percentile-to-median ratio above
        which the burst score reaches zero.
    """

    def __init__(
        self,
        threshold: float = 0.6,
        clipping_tolerance: float = 0.02,
        burst_ratio_limit: float = 400.0,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if clipping_tolerance < 0:
            raise ValueError("clipping_tolerance must be non-negative")
        if burst_ratio_limit <= 1.0:
            raise ValueError("burst_ratio_limit must exceed 1")
        self.threshold = float(threshold)
        self.clipping_tolerance = float(clipping_tolerance)
        self.burst_ratio_limit = float(burst_ratio_limit)

    # -- component checks ---------------------------------------------------

    def _channel_scores(self, stack: np.ndarray) -> list[tuple[float, float]]:
        """``(clipping, burst)`` for each row of a ``(channels, n)`` stack.

        Bit-identical to scoring each channel alone through ``np.median``
        and ``np.percentile`` (``tests/signals/oracle.py``), at a fraction
        of the calls: one ``min``/``max``, one pinned-sample mask, one
        ``np.diff`` and one ``np.partition`` for every row at once.
        """
        n = stack.shape[1]
        lows, highs = stack.min(axis=1).tolist(), stack.max(axis=1).tolist()
        # Thresholds are Python floats compared against the samples'
        # own dtype, so they are rounded into it, as a scalar would be.
        bounds = np.array(
            [
                (low + 0.01 * (high - low), high - 0.01 * (high - low))
                for low, high in zip(lows, highs)
            ],
            dtype=stack.dtype,
        )
        pinned = (
            (stack <= bounds[:, :1]) | (stack >= bounds[:, 1:])
        ).sum(axis=1).tolist()

        energy = np.diff(stack, axis=1)
        energy *= energy
        m = n - 1
        half = m // 2
        low_half = half if m % 2 else half - 1  # np.median's middle ranks
        # np.percentile's linear method interpolates between the ranks
        # below and above (m - 1) * 0.98.  For m == 1 it takes the one
        # value, which is the same lerp between that value and itself.
        position = (m - 1) * 0.98
        below = math.floor(position)
        above = min(below + 1, m - 1)
        gamma = position - below
        # The last rank is partitioned too: NaN sorts last, so a NaN
        # there marks a row with a NaN.
        part = np.partition(
            energy, sorted({low_half, half, below, above, m - 1}), axis=1
        )
        has_nan = np.isnan(part[:, -1]).tolist()
        if m % 2:
            medians = part[:, half]
        else:
            medians = (part[:, low_half] + part[:, half]) / 2
        # np.percentile's lerp, in the energy's dtype.
        low_value, high_value = part[:, below], part[:, above]
        step = high_value - low_value
        if gamma >= 0.5:
            p98 = high_value - step * (1 - gamma)
        else:
            p98 = low_value + step * gamma

        return [
            (
                self._clipping_score(low, high, count / n),
                0.0 if nan else self._burst_score(median, percentile),
            )
            for low, high, count, nan, median, percentile in zip(
                lows, highs, pinned, has_nan, medians.tolist(), p98.tolist()
            )
        ]

    def _clipping_score(self, low: float, high: float, pinned: float) -> float:
        if high <= low or not math.isfinite(high - low):
            return 0.0  # flatline, or an infinite sample: no usable range
        # A healthy oscillating signal touches its extremes rarely.
        excess = max(0.0, pinned - self.clipping_tolerance)
        return float(np.clip(1.0 - excess / 0.25, 0.0, 1.0))

    def _burst_score(self, median: float, p98: float) -> float:
        if median <= 0:
            return 0.0
        ratio = p98 / median
        if math.isnan(ratio):
            return 0.0  # inf - inf in the statistics: unusable, like a NaN
        if ratio <= self.burst_ratio_limit:
            return 1.0
        return float(
            np.clip(
                1.0
                - (ratio - self.burst_ratio_limit) / (4 * self.burst_ratio_limit),
                0.0,
                1.0,
            )
        )

    def _beat_score(self, window: SignalWindow) -> float:
        duration_min = window.duration / 60.0
        lower = _MIN_BPM * duration_min
        upper = _MAX_BPM * duration_min
        score = 1.0
        for peaks in (window.r_peaks, window.systolic_peaks):
            count = float(len(peaks))
            if count < lower:
                score = min(score, count / max(lower, 1e-9))
            elif count > upper:
                score = min(score, float(np.clip(2.0 - count / upper, 0.0, 1.0)))
        return float(score)

    # -- public API -----------------------------------------------------------

    def assess(self, window: SignalWindow) -> QualityReport:
        """Score one window; the SQI is the minimum of the channel checks.

        Using the minimum (not the mean) makes the gate conservative: one
        failed check is enough to withhold a clinical decision.  A window
        with a NaN sample is never usable.
        """
        ecg, abp = window.ecg, window.abp
        if ecg.dtype == abp.dtype:
            scores = self._channel_scores(np.stack((ecg, abp)))
        else:
            scores = self._channel_scores(ecg[None]) + self._channel_scores(abp[None])
        (ecg_clipping, ecg_burst), (abp_clipping, abp_burst) = scores
        clipping = min(ecg_clipping, abp_clipping)
        burst = min(ecg_burst, abp_burst)
        beats = self._beat_score(window)
        sqi = min(clipping, burst, beats)
        return QualityReport(
            sqi=sqi,
            usable=sqi >= self.threshold,
            clipping_score=clipping,
            burst_score=burst,
            beat_score=beats,
        )


def assess_window(window: SignalWindow, threshold: float = 0.6) -> QualityReport:
    """One-shot convenience around :class:`SignalQualityIndex`."""
    return SignalQualityIndex(threshold=threshold).assess(window)
