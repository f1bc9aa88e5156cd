"""Synthetic ECG generation.

Each beat is rendered as a sum of Gaussian deflections for the P, Q, R, S
and T waves (a simplified McSharry-style dynamical model evaluated in closed
form).  Wave timing scales with the instantaneous RR interval so morphology
stays realistic across heart-rate variability, and the R peak lands exactly
on the beat onset reported by the :class:`~repro.signals.cardiac.BeatTrain`
-- which gives the ground-truth R-peak indexes that the paper pre-stored in
the Amulet's memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.signals.cardiac import BeatTrain

__all__ = ["ECGMorphology", "ECGSynthesizer"]


def _add_motion_artifacts(
    signal: np.ndarray,
    sample_rate: float,
    rate_per_min: float,
    amplitude: float,
    rng: np.random.Generator,
) -> None:
    """Superimpose wearable-realistic artifact events, in place.

    Ambulatory recordings are not clean: electrode motion produces short
    high-amplitude bursts and baseline excursions.  Events arrive as a
    Poisson process at ``rate_per_min``; each is either a noise burst or a
    smooth baseline bump of a few hundred milliseconds.  These events are
    what gives the detector a realistic false-positive floor -- and they
    penalize peak-geometry features more than occupancy-grid features,
    the asymmetry behind the Reduced build's accuracy drop.
    """
    duration_min = signal.size / sample_rate / 60.0
    n_events = int(rng.poisson(rate_per_min * duration_min))
    for _ in range(n_events):
        length = int(rng.uniform(0.2, 0.7) * sample_rate)
        start = int(rng.integers(0, max(1, signal.size - length)))
        window = np.hanning(length)
        if rng.random() < 0.5:
            burst = rng.standard_normal(length) * amplitude * rng.uniform(0.5, 1.5)
            signal[start : start + length] += window * burst
        else:
            bump = amplitude * rng.uniform(-2.0, 2.0)
            signal[start : start + length] += window * bump

#: Per-wave timing offsets, expressed as fractions of the *current* RR
#: interval relative to the R peak.  Negative = before the R peak.
_WAVE_OFFSETS = {"P": -0.22, "Q": -0.045, "R": 0.0, "S": 0.045, "T": 0.32}

#: Per-wave Gaussian widths, as fractions of the RR interval.
_WAVE_WIDTHS = {"P": 0.035, "Q": 0.012, "R": 0.012, "S": 0.014, "T": 0.06}


@dataclass(frozen=True)
class ECGMorphology:
    """Per-subject ECG wave amplitudes in millivolts.

    The defaults approximate a lead-II adult ECG.  Cohort generation jitters
    these per subject so that inter-subject morphology differs -- the
    contrast SIFT's positive training class is built from.
    """

    p_amp: float = 0.12
    q_amp: float = -0.1
    r_amp: float = 1.0
    s_amp: float = -0.22
    t_amp: float = 0.3
    #: Multiplier on all Gaussian widths (wave broadness).
    width_scale: float = 1.0

    def amplitudes(self) -> dict[str, float]:
        return {
            "P": self.p_amp,
            "Q": self.q_amp,
            "R": self.r_amp,
            "S": self.s_amp,
            "T": self.t_amp,
        }


class ECGSynthesizer:
    """Render a :class:`BeatTrain` into a sampled ECG waveform.

    Parameters
    ----------
    morphology:
        Subject-specific wave shape.
    noise_std:
        Standard deviation of additive white measurement noise (mV).
    wander_amp:
        Amplitude of sinusoidal baseline wander (mV).
    wander_frequency:
        Baseline wander frequency in Hz (respiration-coupled drift).
    """

    def __init__(
        self,
        morphology: ECGMorphology | None = None,
        noise_std: float = 0.02,
        wander_amp: float = 0.05,
        wander_frequency: float = 0.21,
        artifact_rate_per_min: float = 0.0,
    ) -> None:
        if noise_std < 0 or wander_amp < 0:
            raise ValueError("noise_std and wander_amp must be non-negative")
        if artifact_rate_per_min < 0:
            raise ValueError("artifact_rate_per_min must be non-negative")
        self.morphology = morphology or ECGMorphology()
        self.noise_std = float(noise_std)
        self.wander_amp = float(wander_amp)
        self.wander_frequency = float(wander_frequency)
        self.artifact_rate_per_min = float(artifact_rate_per_min)

    def synthesize(
        self,
        beats: BeatTrain,
        sample_rate: float,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Return the ECG sampled at ``sample_rate`` over ``beats.duration``.

        When ``rng`` is ``None`` the waveform is rendered without noise or
        baseline wander (useful for golden tests).
        """
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        n_samples = int(round(beats.duration * sample_rate))
        signal = np.zeros(n_samples, dtype=np.float64)

        amplitudes = self.morphology.amplitudes()
        # A PVC has no P wave, a wide bizarre QRS and a discordant
        # (inverted) T wave -- the textbook morphology.
        ectopic_amplitudes = {
            "P": 0.0,
            "Q": amplitudes["Q"] * 1.6,
            "R": amplitudes["R"] * 1.25,
            "S": amplitudes["S"] * 2.4,
            "T": -amplitudes["T"] * 1.3,
        }
        # RR interval assigned to each beat: the interval *following* it,
        # falling back to the preceding one for the final beat.
        rr = self._per_beat_rr(beats)
        ectopic = beats.ectopic
        self._render_beats(
            signal,
            beats.onsets,
            rr,
            {
                wave: np.where(ectopic, ectopic_amplitudes[wave], amp)
                for wave, amp in amplitudes.items()
            },
            self.morphology.width_scale * np.where(ectopic, 2.2, 1.0),
            sample_rate,
        )

        if rng is not None:
            t = np.arange(n_samples, dtype=np.float64) / sample_rate
            phase = rng.uniform(0.0, 2.0 * np.pi)
            signal += self.wander_amp * np.sin(
                2.0 * np.pi * self.wander_frequency * t + phase
            )
            signal += self.noise_std * rng.standard_normal(n_samples)
            _add_motion_artifacts(
                signal,
                sample_rate,
                self.artifact_rate_per_min,
                amplitude=0.6,
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

    @staticmethod
    def _render_beats(
        signal: np.ndarray,
        onsets: np.ndarray,
        rr: np.ndarray,
        amplitudes: dict[str, np.ndarray],
        width_scale: np.ndarray,
        sample_rate: float,
    ) -> None:
        """Add every beat's P-QRS-T complex to ``signal`` in place.

        Each beat covers a local slice (-0.6 to +0.7 RR around its R peak).
        A chunk of beats is evaluated at once over a (beats x longest
        slice) grid of sample times; the rows are then added in beat
        order, since neighbouring slices overlap.
        """
        lo = np.maximum(0, ((onsets - 0.6 * rr) * sample_rate).astype(np.intp))
        hi = np.minimum(
            signal.size, ((onsets + 0.7 * rr) * sample_rate).astype(np.intp) + 1
        )
        for start in range(0, onsets.size, _CHUNK_BEATS):
            rows = slice(start, start + _CHUNK_BEATS)
            window = _sample_times(lo[rows], hi[rows], sample_rate)
            onset, beat_rr = onsets[rows, None], rr[rows, None]
            scale = width_scale[rows, None]
            local = np.zeros(window.shape, dtype=np.float64)
            for wave, amp in amplitudes.items():
                center = onset + _WAVE_OFFSETS[wave] * beat_rr
                width = _WAVE_WIDTHS[wave] * beat_rr * scale
                local += amp[rows, None] * np.exp(
                    -0.5 * ((window - center) / width) ** 2
                )
            _add_rows(signal, lo[rows], hi[rows], local)


#: Beats evaluated per grid, which keeps each transient array under a
#: MiB at 360 Hz.
_CHUNK_BEATS = 128


def _sample_times(lo: np.ndarray, hi: np.ndarray, sample_rate: float) -> np.ndarray:
    """Sample times of each beat's slice, one row per beat.

    Row ``i`` holds the times of samples ``lo[i], lo[i] + 1, ...`` out to
    the longest slice of the chunk; entries past ``hi[i]`` are padding
    that :func:`_add_rows` never reads.  A beat whose slice is empty
    (``lo >= hi``) contributes nothing.
    """
    span = int(np.max(hi - lo))
    return (lo[:, None] + np.arange(span)) / sample_rate


def _add_rows(
    signal: np.ndarray, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray
) -> None:
    """``signal[lo[i]:hi[i]] += rows[i]``, in row order (slices overlap)."""
    for start, stop, row in zip(lo.tolist(), hi.tolist(), rows):
        if start < stop:
            signal[start:stop] += row[: stop - start]
