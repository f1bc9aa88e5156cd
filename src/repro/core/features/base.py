"""Feature extractor interface."""

from __future__ import annotations

import abc

import numpy as np

from repro.core.features.batched import group_by_length
from repro.core.portrait import PortraitBatch, build_portrait_batch, stream_positions

__all__ = ["FeatureExtractor"]


class FeatureExtractor(abc.ABC):
    """Maps windows to fixed-length feature vectors, one row per window.

    Parameters
    ----------
    grid_n:
        Side length of the occupancy grid for the matrix features; the
        paper uses ``n = 50``.  Extractors without matrix features ignore
        it but accept it for interface uniformity.
    """

    #: Whether the reference implementation needs libm (sqrt/atan/exp).
    #: The Amulet's Simplified and Reduced builds must report ``False``.
    requires_libm: bool = True

    def __init__(self, grid_n: int = 50) -> None:
        if grid_n < 2:
            raise ValueError("grid_n must be >= 2")
        self.grid_n = int(grid_n)

    @property
    @abc.abstractmethod
    def feature_names(self) -> tuple[str, ...]:
        """Ordered names of the produced features."""

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def extract_stream(self, stream) -> np.ndarray:
        """Feature matrix for a stream: ``(n_windows, n_features)``.

        ``stream`` is anything with a ``windows`` attribute (e.g. a
        :class:`~repro.attacks.scenario.LabeledStream`) or a plain
        sequence of :class:`~repro.signals.dataset.SignalWindow`.  Windows
        are extracted one equal-length group at a time and the rows come
        back in input order.  A row depends only on its window, so one
        window's features are the same alone as inside any stream.

        The matrix tiers raise
        :class:`~repro.core.portrait.NonFiniteWindowError` (a
        ``ValueError``) naming the first window with a NaN or infinite
        sample; the Reduced tier propagates NaN into that window's row.
        """
        windows = list(getattr(stream, "windows", stream))
        out = np.empty((len(windows), self.n_features))
        for indices in group_by_length(windows).values():
            batch = build_portrait_batch([windows[i] for i in indices])
            with stream_positions(indices):
                out[indices] = self._extract_batch(batch)
        return out

    @abc.abstractmethod
    def _extract_batch(self, batch: PortraitBatch) -> np.ndarray:
        """The ``(len(batch), n_features)`` feature matrix of one batch."""
