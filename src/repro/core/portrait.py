"""The 2-D portrait: SIFT's joint representation of ECG and ABP.

``w`` seconds of synchronously measured ABP ``a(t)`` and ECG ``e(t)`` are
min-max normalized to [0, 1] and combined point-wise into the portrait
``P = { (a(t), e(t)) }`` -- a Lissajous-like figure whose shape encodes how
the two signals track each other.  Characteristic points (R peaks, systolic
peaks) map to specific portrait locations; the matrix features view the
portrait as an occupancy grid.

Portraits are only ever built in batches: a :class:`PortraitBatch` holds
the portraits of equal-length windows as rows, so normalization and the
occupancy scatter run once per batch instead of once per window.  Every
row depends only on its own window, so a window's portrait is the same
alone as inside any batch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.signals.dataset import SignalWindow
from repro.signals.peaks import match_peaks

__all__ = [
    "NonFiniteWindowError",
    "PortraitBatch",
    "build_portrait_batch",
    "normalize_rows",
    "stream_positions",
]


class NonFiniteWindowError(ValueError):
    """A window with a NaN or infinite sample: its portrait has no grid cell.

    ``position`` is the window's position in the sequence being scored.
    Layers that score a slice of a longer stream re-raise it at the
    stream position through :func:`stream_positions`.
    """

    def __init__(self, position: int) -> None:
        self.position = int(position)
        super().__init__(
            f"window {self.position} of the stream has non-finite ECG/ABP "
            "samples; its portrait has no occupancy grid"
        )


@contextmanager
def stream_positions(positions: Sequence[int]) -> Iterator[None]:
    """Re-raise a :class:`NonFiniteWindowError` from a slice of a stream.

    ``positions[i]`` is the stream position of the slice's window ``i``.
    """
    try:
        yield
    except NonFiniteWindowError as exc:
        raise NonFiniteWindowError(positions[exc.position]) from None


def normalize_rows(signals: np.ndarray) -> np.ndarray:
    """Rowwise min-max normalization to [0, 1].

    ``(signal - low) / (high - low)`` in float64, row by row.  A constant
    row (zero dynamic range -- e.g. a flat-lined hijacked sensor) maps to
    all 0.5, keeping the portrait well-defined.
    """
    signals = np.asarray(signals, dtype=np.float64)
    low = signals.min(axis=1, keepdims=True)
    high = signals.max(axis=1, keepdims=True)
    span = high - low
    flat = (high <= low).ravel()
    out = (signals - low) / np.where(span > 0.0, span, 1.0)
    if flat.any():
        out[flat] = 0.5
    return out


@dataclass(frozen=True)
class PortraitBatch:
    """The portraits of equal-length windows, one row per window.

    Attributes
    ----------
    x / y:
        ``(n_windows, n_samples)`` normalized ABP (x) and ECG (y); row
        ``i`` is window ``i``'s portrait, point ``t`` is ``(x[i, t],
        y[i, t])``.
    r_peaks / systolic_peaks:
        Per window, the sample indexes of its R peaks and systolic peaks
        (ragged, so they stay per window).
    peak_pairs:
        Per window, ``(r_index, systolic_index)`` pairs matching each R
        peak with the systolic peak that follows it within a physiological
        transit lag.
    """

    x: np.ndarray
    y: np.ndarray
    r_peaks: tuple[np.ndarray, ...]
    systolic_peaks: tuple[np.ndarray, ...]
    peak_pairs: tuple[tuple[tuple[int, int], ...], ...]

    def __len__(self) -> int:
        return self.x.shape[0]

    def occupancy_matrices(self, n: int = 50) -> np.ndarray:
        """All windows' ``n x n`` count matrices as one ``(m, n, n)`` tensor.

        Element ``[k, i, j]`` counts window ``k``'s portrait points whose
        ECG value falls in column ``j`` and ABP value in row ``i`` of a
        uniform grid over [0, 1]^2 (points at exactly 1.0 land in the last
        cell).  Columns index the *ECG* axis so that the column averages --
        the basis of two of the matrix features -- form the ECG occupancy
        profile, the marginal that changes when the ECG stream is hijacked.
        One flat ``np.bincount`` scatters every window at once.

        Raises :class:`NonFiniteWindowError` for the first window whose
        portrait has a non-finite point (from a NaN or infinite sample).
        """
        if n < 1:
            raise ValueError("grid size must be >= 1")
        finite = np.isfinite(self.x).all(axis=1) & np.isfinite(self.y).all(axis=1)
        if not finite.all():
            raise NonFiniteWindowError(int(np.argmin(finite)))
        m = self.x.shape[0]
        col = np.minimum((self.y * n).astype(np.intp), n - 1)
        row = np.minimum((self.x * n).astype(np.intp), n - 1)
        flat = (
            np.arange(m, dtype=np.intp)[:, None] * (n * n) + row * n + col
        ).ravel()
        return np.bincount(flat, minlength=m * n * n).reshape(m, n, n)


def build_portrait_batch(
    windows: Sequence[SignalWindow], max_lag_s: float = 0.6
) -> PortraitBatch:
    """The portraits of equal-length windows.

    Peak pairing uses the same physiological rule as the signal substrate:
    an R peak corresponds to the first systolic peak that follows it within
    ``max_lag_s`` seconds.  Windows of different lengths do not stack
    (``ValueError``); group them first (see
    :func:`~repro.core.features.batched.group_by_length`).
    """
    return PortraitBatch(
        x=normalize_rows(np.stack([w.abp for w in windows])),
        y=normalize_rows(np.stack([w.ecg for w in windows])),
        r_peaks=tuple(np.asarray(w.r_peaks, dtype=np.intp) for w in windows),
        systolic_peaks=tuple(
            np.asarray(w.systolic_peaks, dtype=np.intp) for w in windows
        ),
        peak_pairs=tuple(
            tuple(
                match_peaks(w.r_peaks, w.systolic_peaks, w.sample_rate, max_lag_s)
            )
            for w in windows
        ),
    )
