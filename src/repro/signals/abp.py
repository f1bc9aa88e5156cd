"""Synthetic arterial blood pressure (ABP) generation.

Each beat of the shared :class:`~repro.signals.cardiac.BeatTrain` launches a
pressure pulse: a fast systolic upstroke peaking one pulse-transit-time
after the R peak, an exponential diastolic decay, and a dicrotic-notch
secondary wave.  Because ECG and ABP are rendered from the *same* beat
train, the two signals carry the inter-signal correlation that SIFT's
portrait features exploit; replacing the ECG with another subject's breaks
the beat alignment, which is what the sensor-hijacking attack looks like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.signals.cardiac import BeatTrain
from repro.signals.ecg import (
    _CHUNK_BEATS,
    _add_motion_artifacts,
    _add_rows,
    _sample_times,
)

__all__ = ["ABPMorphology", "ABPSynthesizer"]


@dataclass(frozen=True)
class ABPMorphology:
    """Per-subject ABP pulse shape.

    Attributes
    ----------
    systolic / diastolic:
        Peak and trough pressures in mmHg.
    transit_time:
        Pulse transit time: delay from the R peak to the foot of the
        pressure upstroke, in seconds.
    upstroke_fraction:
        Fraction of the RR interval from pulse foot to systolic peak.
    decay_fraction:
        Diastolic decay time constant as a fraction of the RR interval.
    dicrotic_amp:
        Dicrotic wave amplitude as a fraction of pulse pressure.
    dicrotic_fraction:
        Position of the dicrotic wave after the systolic peak, as a
        fraction of the RR interval.
    """

    systolic: float = 120.0
    diastolic: float = 75.0
    transit_time: float = 0.18
    upstroke_fraction: float = 0.12
    decay_fraction: float = 0.35
    dicrotic_amp: float = 0.14
    dicrotic_fraction: float = 0.22
    #: Slow modulation of the pulse transit time (PTT tracks blood-pressure
    #: regulation): fractional depth, frequency (Hz) and phase.  The
    #: modulation is a deterministic function of beat time so the rendered
    #: waveform and the ground-truth systolic peak times always agree.
    ptt_mod_depth: float = 0.15
    ptt_mod_freq: float = 0.05
    ptt_mod_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.systolic <= self.diastolic:
            raise ValueError("systolic pressure must exceed diastolic")
        if self.transit_time < 0:
            raise ValueError("transit_time must be non-negative")
        if not 0.0 <= self.ptt_mod_depth < 1.0:
            raise ValueError("ptt_mod_depth must be in [0, 1)")

    @property
    def pulse_pressure(self) -> float:
        return self.systolic - self.diastolic

    def transit_at(self, onset_s: float | np.ndarray) -> np.ndarray:
        """Pulse transit time of a beat starting at ``onset_s`` seconds."""
        modulation = 1.0 + self.ptt_mod_depth * np.sin(
            2.0 * np.pi * self.ptt_mod_freq * np.asarray(onset_s, dtype=np.float64)
            + self.ptt_mod_phase
        )
        return self.transit_time * modulation


class ABPSynthesizer:
    """Render a :class:`BeatTrain` into a sampled ABP waveform.

    Parameters
    ----------
    morphology:
        Subject-specific pulse shape.
    noise_std:
        Standard deviation of additive measurement noise (mmHg).
    """

    def __init__(
        self,
        morphology: ABPMorphology | None = None,
        noise_std: float = 0.8,
        artifact_rate_per_min: float = 0.0,
    ) -> None:
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if artifact_rate_per_min < 0:
            raise ValueError("artifact_rate_per_min must be non-negative")
        self.morphology = morphology or ABPMorphology()
        self.noise_std = float(noise_std)
        self.artifact_rate_per_min = float(artifact_rate_per_min)

    def systolic_peak_times(self, beats: BeatTrain) -> np.ndarray:
        """Ground-truth systolic peak times for each beat.

        The systolic peak of beat *i* trails its R peak by the pulse transit
        time plus the upstroke duration (a fraction of the beat's RR
        interval).  Peaks past the signal horizon are dropped.
        """
        m = self.morphology
        rr = self._per_beat_rr(beats)
        times = beats.onsets + m.transit_at(beats.onsets) + m.upstroke_fraction * rr
        return times[times < beats.duration]

    def synthesize(
        self,
        beats: BeatTrain,
        sample_rate: float,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Return the ABP sampled at ``sample_rate`` over ``beats.duration``."""
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        n_samples = int(round(beats.duration * sample_rate))
        m = self.morphology
        signal = np.full(n_samples, m.diastolic, dtype=np.float64)

        # A PVC ejects against an incompletely filled ventricle: the
        # pulse is weak (sometimes barely palpable).
        amplitude = np.where(beats.ectopic, 0.5, 1.0)
        self._render_pulses(
            signal, beats.onsets, self._per_beat_rr(beats), amplitude, sample_rate
        )

        if rng is not None:
            if self.noise_std > 0:
                signal += self.noise_std * rng.standard_normal(n_samples)
            _add_motion_artifacts(
                signal,
                sample_rate,
                self.artifact_rate_per_min,
                amplitude=0.25 * m.pulse_pressure,
                rng=rng,
            )
        return signal

    @staticmethod
    def _per_beat_rr(beats: BeatTrain) -> np.ndarray:
        if len(beats) == 0:
            return np.empty(0, dtype=np.float64)
        if len(beats) == 1:
            return np.array([0.8], dtype=np.float64)
        rr = beats.rr_intervals
        return np.concatenate([rr, rr[-1:]])

    def _render_pulses(
        self,
        signal: np.ndarray,
        onsets: np.ndarray,
        rr: np.ndarray,
        amplitude: np.ndarray,
        sample_rate: float,
    ) -> None:
        """Add every beat's pressure pulse (above diastolic) in place.

        Each pulse covers 1.4 RR from its foot.  A chunk of beats is
        evaluated at once over a (beats x longest slice) grid of sample
        times; the rows are then added in beat order, since neighbouring
        slices overlap.
        """
        m = self.morphology
        foot = onsets + m.transit_at(onsets)
        peak = foot + m.upstroke_fraction * rr
        tau = m.decay_fraction * rr
        dicrotic_center = peak + m.dicrotic_fraction * rr
        dicrotic_width = 0.05 * rr
        scale = amplitude * m.pulse_pressure

        lo = np.maximum(0, (foot * sample_rate).astype(np.intp))
        hi = np.minimum(
            signal.size, ((foot + 1.4 * rr) * sample_rate).astype(np.intp) + 1
        )
        for start in range(0, onsets.size, _CHUNK_BEATS):
            rows = slice(start, start + _CHUNK_BEATS)
            window = _sample_times(lo[rows], hi[rows], sample_rate)
            row_foot, row_peak = foot[rows, None], peak[rows, None]
            pulse = np.zeros(window.shape, dtype=np.float64)

            # float64 sin is slow: evaluate it (and exp) only where kept.
            rising = (window >= row_foot) & (window < row_peak)
            phase = 0.5 * np.pi * (window - row_foot) / (row_peak - row_foot)
            pulse[rising] = np.sin(phase[rising])
            falling = window >= row_peak
            decay = -(window - row_peak) / tau[rows, None]
            pulse[falling] = np.exp(decay[falling])
            pulse += m.dicrotic_amp * np.exp(
                -0.5
                * ((window - dicrotic_center[rows, None]) / dicrotic_width[rows, None])
                ** 2
            )
            _add_rows(signal, lo[rows], hi[rows], scale[rows, None] * pulse)
