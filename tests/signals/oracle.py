"""Reference implementations the signals property suite compares against.

Nothing in ``src/`` imports this module; it is safety code.  It holds
the plain, one-thing-at-a-time versions of three fast paths:

* the SQI gate, one channel at a time (below);
* the refractory selection of the peak detectors, checking each
  candidate against every peak kept so far (:func:`enforce_refractory`),
  and their refinement, one ``argmax`` per cluster (:func:`refine_peaks`);
* ECG and ABP rendering, one beat per call (:func:`render_ecg`,
  :func:`render_abp`).

SQI gate
--------
:meth:`repro.signals.quality.SignalQualityIndex.assess` gets a window's
statistics from one call into a compiled kernel, or else scores both
channels at once with one partition for the median and the 98th
percentile of the first-difference energy.  This module keeps the same
checks written the plain way -- one channel at a time, through
``np.median`` and ``np.percentile`` -- so the property suite has an
independent reference to compare both paths against bit-for-bit.

Two rules are added on top of the plain formulas.  The abstain rule: a
burst ratio that comes out NaN (a NaN sample, or ``inf - inf`` in the
energy) scores 0, so the window is withheld instead of raising.  And a
window of fewer than 2 samples has no first difference to rank: every
score is 0.
"""

from __future__ import annotations

import numpy as np

from repro.signals.abp import ABPSynthesizer
from repro.signals.cardiac import BeatTrain
from repro.signals.dataset import SignalWindow
from repro.signals.ecg import _WAVE_OFFSETS, _WAVE_WIDTHS, ECGSynthesizer
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
    if window.n_samples < 2:
        return QualityReport(
            sqi=0.0, usable=False, clipping_score=0.0, burst_score=0.0, beat_score=0.0
        )
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


def enforce_refractory(
    candidates: np.ndarray, scores: np.ndarray, min_gap: int
) -> np.ndarray:
    """Greedily keep the highest-scoring candidates at least ``min_gap`` apart.

    Quadratic: every candidate is compared with every peak kept so far.
    """
    keep: list[int] = []
    order = np.argsort(scores[candidates])[::-1]
    taken = np.zeros(0, dtype=np.intp)
    for rank in order:
        idx = int(candidates[rank])
        if taken.size == 0 or np.min(np.abs(taken - idx)) >= min_gap:
            keep.append(idx)
            taken = np.append(taken, idx)
    return np.sort(np.asarray(keep, dtype=np.intp))


def refine_peaks(signal: np.ndarray, clusters: np.ndarray, half: int) -> np.ndarray:
    """Move each cluster to the largest sample within ``half`` of it.

    One ``np.argmax`` per cluster, over the slice clipped to the signal.
    """
    refined = []
    for idx in clusters:
        lo, hi = max(0, idx - half), min(signal.size, idx + half + 1)
        refined.append(lo + int(np.argmax(signal[lo:hi])))
    return np.unique(np.asarray(refined, dtype=np.intp))


def render_ecg(
    synth: ECGSynthesizer, beats: BeatTrain, sample_rate: float
) -> np.ndarray:
    """The noise-free ECG of ``beats``, rendered one beat at a time."""
    n_samples = int(round(beats.duration * sample_rate))
    t = np.arange(n_samples, dtype=np.float64) / sample_rate
    signal = np.zeros(n_samples, dtype=np.float64)
    amplitudes = synth.morphology.amplitudes()
    ectopic_amplitudes = {
        "P": 0.0,
        "Q": amplitudes["Q"] * 1.6,
        "R": amplitudes["R"] * 1.25,
        "S": amplitudes["S"] * 2.4,
        "T": -amplitudes["T"] * 1.3,
    }
    rr = synth._per_beat_rr(beats)
    for onset, beat_rr, is_ectopic in zip(beats.onsets, rr, beats.ectopic):
        _render_beat(
            synth,
            signal,
            t,
            onset,
            beat_rr,
            ectopic_amplitudes if is_ectopic else amplitudes,
            sample_rate,
            width_multiplier=2.2 if is_ectopic else 1.0,
        )
    return signal


def _render_beat(
    synth: ECGSynthesizer,
    signal: np.ndarray,
    t: np.ndarray,
    onset: float,
    rr: float,
    amplitudes: dict[str, float],
    sample_rate: float,
    width_multiplier: float = 1.0,
) -> None:
    """Add one beat's P-QRS-T complex to ``signal`` in place."""
    width_scale = synth.morphology.width_scale * width_multiplier
    lo = max(0, int((onset - 0.6 * rr) * sample_rate))
    hi = min(t.size, int((onset + 0.7 * rr) * sample_rate) + 1)
    if lo >= hi:
        return
    window = t[lo:hi]
    local = np.zeros(window.size, dtype=np.float64)
    for wave, amp in amplitudes.items():
        center = onset + _WAVE_OFFSETS[wave] * rr
        width = _WAVE_WIDTHS[wave] * rr * width_scale
        local += amp * np.exp(-0.5 * ((window - center) / width) ** 2)
    signal[lo:hi] += local


def render_abp(
    synth: ABPSynthesizer, beats: BeatTrain, sample_rate: float
) -> np.ndarray:
    """The noise-free ABP of ``beats``, rendered one pulse at a time."""
    n_samples = int(round(beats.duration * sample_rate))
    t = np.arange(n_samples, dtype=np.float64) / sample_rate
    signal = np.full(n_samples, synth.morphology.diastolic, dtype=np.float64)
    rr = synth._per_beat_rr(beats)
    for onset, beat_rr, is_ectopic in zip(beats.onsets, rr, beats.ectopic):
        amplitude = 0.5 if is_ectopic else 1.0
        _render_pulse(synth, signal, t, onset, beat_rr, sample_rate, amplitude)
    return signal


def _render_pulse(
    synth: ABPSynthesizer,
    signal: np.ndarray,
    t: np.ndarray,
    onset: float,
    rr: float,
    sample_rate: float,
    amplitude: float = 1.0,
) -> None:
    """Add one pressure pulse (above diastolic baseline) in place."""
    m = synth.morphology
    foot = onset + float(m.transit_at(onset))
    peak = foot + m.upstroke_fraction * rr
    tau = m.decay_fraction * rr
    dicrotic_center = peak + m.dicrotic_fraction * rr
    dicrotic_width = 0.05 * rr

    lo = max(0, int(foot * sample_rate))
    hi = min(t.size, int((foot + 1.4 * rr) * sample_rate) + 1)
    if lo >= hi:
        return
    window = t[lo:hi]
    pulse = np.zeros(window.size, dtype=np.float64)

    rising = (window >= foot) & (window < peak)
    pulse[rising] = np.sin(0.5 * np.pi * (window[rising] - foot) / (peak - foot))
    falling = window >= peak
    pulse[falling] = np.exp(-(window[falling] - peak) / tau)
    pulse += m.dicrotic_amp * np.exp(
        -0.5 * ((window - dicrotic_center) / dicrotic_width) ** 2
    )
    signal[lo:hi] += amplitude * m.pulse_pressure * pulse
