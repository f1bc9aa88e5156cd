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

The per-channel statistics behind the first two checks (min, max, the
pinned-sample count, and the median and 98th percentile of the energy)
come from one call into the compiled kernel of :mod:`repro.native.sqi`
when the host can build it, and from NumPy otherwise; the two paths are
bit-identical.  A window of fewer than 2 samples has no energy to rank
and is never usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.native.sqi import STATS, energy_ranks, load_kernel
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


def _clamp01(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` on a Python float, bit for bit.

    Python's ``max``/``min`` keep their first argument on a tie or a NaN,
    as ``np.clip`` keeps ``x``: ``-0.0`` and NaN come back unchanged.
    """
    return min(max(x, 0.0), 1.0)


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


#: The report on a window of fewer than 2 samples: nothing to assess.
_TOO_SHORT = QualityReport(
    sqi=0.0, usable=False, clipping_score=0.0, burst_score=0.0, beat_score=0.0
)


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
        # The first load in a process may compile: here, not in assess.
        self._kernel = load_kernel()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_kernel"]  # a loaded library does not pickle
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernel = load_kernel()

    # -- component checks ---------------------------------------------------

    def _channel_scores(self, stack: np.ndarray) -> list[tuple[float, float]]:
        """``(clipping, burst)`` for each row of a ``(channels, n)`` stack.

        The NumPy path, for windows the kernel does not take.  Bit-identical
        to scoring each channel alone through ``np.median`` and
        ``np.percentile`` (``tests/signals/oracle.py``), at a fraction of
        the calls: one ``min``/``max``, one pinned-sample mask, one
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
        low_half, half, below, above, gamma = energy_ranks(n)
        # The last rank is partitioned too: NaN sorts last, so a NaN
        # there marks a row with a NaN.
        part = np.partition(
            energy, sorted({low_half, half, below, above, n - 2}), axis=1
        )
        has_nan = np.isnan(part[:, -1]).tolist()
        if low_half == half:
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
            self._scores(n, *stats)
            for stats in zip(
                lows, highs, pinned, has_nan, medians.tolist(), p98.tolist()
            )
        ]

    def _scores(
        self,
        n: int,
        low: float,
        high: float,
        pinned: float,
        nan: float,
        median: float,
        p98: float,
    ) -> tuple[float, float]:
        """One channel's ``(clipping, burst)`` from its six statistics."""
        return (
            self._clipping_score(low, high, pinned / n),
            0.0 if nan else self._burst_score(median, p98),
        )

    def _clipping_score(self, low: float, high: float, pinned: float) -> float:
        if high <= low or not math.isfinite(high - low):
            return 0.0  # flatline, or an infinite sample: no usable range
        # A healthy oscillating signal touches its extremes rarely.
        excess = max(0.0, pinned - self.clipping_tolerance)
        return _clamp01(1.0 - excess / 0.25)

    def _burst_score(self, median: float, p98: float) -> float:
        if median <= 0:
            return 0.0
        ratio = p98 / median
        if math.isnan(ratio):
            return 0.0  # inf - inf in the statistics: unusable, like a NaN
        if ratio <= self.burst_ratio_limit:
            return 1.0
        return _clamp01(
            1.0 - (ratio - self.burst_ratio_limit) / (4 * self.burst_ratio_limit)
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
                score = min(score, _clamp01(2.0 - count / upper))
        return float(score)

    # -- public API -----------------------------------------------------------

    def assess(self, window: SignalWindow) -> QualityReport:
        """Score one window; the SQI is the minimum of the channel checks.

        Using the minimum (not the mean) makes the gate conservative: one
        failed check is enough to withhold a clinical decision.  A window
        with a NaN sample, or with fewer than 2 samples, is never usable.

        Makes one kernel call when both channels share a float dtype, are
        C-contiguous and the kernel loaded; every other window takes the
        NumPy path (:meth:`_channel_scores`).
        """
        ecg, abp = window.ecg, window.abp
        n = ecg.size
        if n < 2:
            return _TOO_SHORT
        stats = None if self._kernel is None else self._kernel.stats(ecg, abp)
        if stats is not None:
            scores = [self._scores(n, *stats[:STATS]), self._scores(n, *stats[STATS:])]
        elif ecg.dtype == abp.dtype:
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
