"""Vectorized feature primitives over whole batches of portraits.

Feature extraction runs on :class:`~repro.core.portrait.PortraitBatch`
rows, amortizing the heavy per-window stages across a whole stream:

* all occupancy matrices in a single ``np.bincount`` scatter;
* the matrix-feature reductions (SFI, column-average statistics) as one
  axis-reduction over the stacked matrices;
* the peak geometry as elementwise arithmetic on padded matrices.

Every row depends only on its own window: the elementwise arithmetic is
the same float64 expression per window, and the axis reductions reduce
the same contiguous runs whatever the batch size.  That makes extraction
batch-size invariant -- a window's features are the same alone, in any
chunk, or in the whole stream -- which ``tests/core/test_batch_detection.py``
and ``tests/core/test_peak_geometry_batch.py`` check against the
per-window reference formulas kept in ``tests/core/oracle.py``.

Peak geometry is ragged -- each window has its own R-peak and
systolic-peak count -- so it cannot stack into rectangular matrices
directly.  :class:`PeakGeometryBatch` pads instead: peak indices land in
``(n_windows, max_count)`` index matrices (padded positions point at
sample 0) with boolean validity masks, the geometric quantities are
computed elementwise on the padded matrices, and the per-window means
accumulate the masked values column by column.  That is the
**sequential-mean contract**: values accumulate left to right, exactly
like the device C loop, rather than via ``np.mean``'s pairwise summation,
which re-associates once a row has 8+ values and would make a window's
mean depend on the padding width of its batch.  Padding contributes exact
zeros to non-negative partial sums, so it never perturbs a mean.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.portrait import PortraitBatch
from repro.signals.dataset import SignalWindow

__all__ = [
    "PeakGeometryBatch",
    "build_peak_geometry",
    "group_by_length",
    "iter_window_chunks",
    "masked_sequential_row_means",
    "spatial_filling_indices",
]


def iter_window_chunks(
    stream, chunk_size: int
) -> Iterator[list[SignalWindow]]:
    """Cut a stream into lists of at most ``chunk_size`` windows.

    ``stream`` is anything with a ``windows`` attribute (e.g. a
    :class:`~repro.attacks.scenario.LabeledStream`), a sequence of
    windows, or a lazy iterator.  Consumption is incremental: at most one
    chunk of windows is pulled from a lazy source at a time, so chunked
    scoring over a generator never materializes the whole stream.  An
    empty stream yields no chunks (not an empty list).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    windows = iter(getattr(stream, "windows", stream))
    while True:
        chunk = list(itertools.islice(windows, chunk_size))
        if not chunk:
            return
        yield chunk


def group_by_length(windows: Sequence[SignalWindow]) -> dict[int, list[int]]:
    """Window positions grouped by sample count, in first-seen order.

    Batched stages need rectangular inputs, so a ragged stream is scored
    one equal-length group at a time and scattered back by these
    positions, which keeps every result in input order.
    """
    groups: dict[int, list[int]] = {}
    for i, window in enumerate(windows):
        groups.setdefault(window.n_samples, []).append(i)
    return groups


def spatial_filling_indices(matrices: np.ndarray) -> np.ndarray:
    """Per-matrix spatial filling index ``n^2 * sum((c_ij / N)^2)``.

    ``matrices`` is the stacked float64 occupancy tensor ``(m, n, n)``.
    With cell probabilities ``p_ij = c_ij / N`` the index is 1 for a
    perfectly space-filling portrait and ``n^2`` for one collapsed into a
    single cell; empty matrices yield 0.0.
    """
    matrices = np.asarray(matrices, dtype=np.float64)
    n = matrices.shape[1]
    totals = matrices.sum(axis=(1, 2))
    out = np.zeros(matrices.shape[0])
    occupied = totals > 0
    if occupied.any():
        p = matrices[occupied] / totals[occupied, None, None]
        out[occupied] = n**2 * np.sum(p**2, axis=(1, 2))
    return out


def masked_sequential_row_means(
    values: np.ndarray, mask: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Row means over the masked entries, accumulated left to right.

    ``values`` and ``mask`` are ``(m, k)``; ``counts`` holds each row's
    number of valid entries (``mask.sum(axis=1)``, passed in because the
    callers already know it).  Rows with no valid entries yield 0.0: a
    window with no peaks of a kind is implausibly empty, which is itself
    anomalous, and the classifier learns it as such.

    Accumulation walks the columns in order -- ``((v0 + v1) + v2) + ...``,
    the accumulation order of a C ``for`` loop -- then divides once in
    float64.  Masked-out positions contribute ``+0.0``, which is exact.
    """
    values = np.where(mask, values, 0.0)
    total = np.zeros(values.shape[0])
    for j in range(values.shape[1]):
        total = total + values[:, j]
    counts = np.asarray(counts, dtype=np.float64)
    return np.where(counts > 0.0, total / np.where(counts > 0.0, counts, 1.0), 0.0)


def _pad_index_matrix(
    index_lists: "list[np.ndarray]",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ragged index lists -> padded ``(m, k)`` matrix + mask + counts.

    Padding positions index sample 0 -- a valid coordinate, so gathered
    values stay finite and the elementwise geometry never sees NaN; the
    mask is what excludes them from the means.
    """
    m = len(index_lists)
    counts = np.fromiter((len(ix) for ix in index_lists), dtype=np.intp, count=m)
    k = int(counts.max(initial=0))
    indices = np.zeros((m, k), dtype=np.intp)
    for i, ix in enumerate(index_lists):
        if len(ix):
            indices[i, : len(ix)] = ix
    mask = np.arange(k, dtype=np.intp)[None, :] < counts[:, None]
    return indices, mask, counts


@dataclass(frozen=True)
class PeakGeometryBatch:
    """Padded peak coordinates for a whole stream, ready for reduction.

    Three peak families, each as ``(n_windows, max_count)`` coordinate
    matrices with a validity mask and per-window counts: the R peaks
    (``r_*``), the systolic peaks (``s_*``) and the matched R/systolic
    pairs (``pr_*``/``ps_*`` share ``pair_mask``/``pair_counts``).  The
    mean-feature methods return one float64 value per window: the
    sequential mean of a per-peak quantity, 0.0 for a window with no peaks
    of that family.
    """

    r_x: np.ndarray
    r_y: np.ndarray
    r_mask: np.ndarray
    r_counts: np.ndarray
    s_x: np.ndarray
    s_y: np.ndarray
    s_mask: np.ndarray
    s_counts: np.ndarray
    pr_x: np.ndarray
    pr_y: np.ndarray
    ps_x: np.ndarray
    ps_y: np.ndarray
    pair_mask: np.ndarray
    pair_counts: np.ndarray

    def angle_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean angle ``atan2(y, x)`` of the R and of the systolic peaks."""
        return (
            masked_sequential_row_means(
                np.arctan2(self.r_y, self.r_x), self.r_mask, self.r_counts
            ),
            masked_sequential_row_means(
                np.arctan2(self.s_y, self.s_x), self.s_mask, self.s_counts
            ),
        )

    def distance_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean distance to the origin of the R and of the systolic peaks."""
        return (
            masked_sequential_row_means(
                np.sqrt(self.r_x**2 + self.r_y**2), self.r_mask, self.r_counts
            ),
            masked_sequential_row_means(
                np.sqrt(self.s_x**2 + self.s_y**2), self.s_mask, self.s_counts
            ),
        )

    def paired_distance_means(self) -> np.ndarray:
        """Mean distance between each R peak and its matched systolic peak."""
        distances = np.sqrt(
            (self.pr_x - self.ps_x) ** 2 + (self.pr_y - self.ps_y) ** 2
        )
        return masked_sequential_row_means(
            distances, self.pair_mask, self.pair_counts
        )

    def slope_means(self, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean slope ``y / max(x, epsilon)`` of the R and systolic peaks.

        The slope is the angle's tangent, computed without ``atan``.
        Portrait coordinates are in [0, 1], so ``x`` is non-negative and
        only the near-zero case needs clamping.  ``epsilon`` is the
        Simplified build's ``SLOPE_EPSILON``; it is a
        parameter (not an import) because :mod:`~repro.core.features.
        simplified` imports this module.
        """
        return (
            masked_sequential_row_means(
                self.r_y / np.maximum(self.r_x, epsilon),
                self.r_mask,
                self.r_counts,
            ),
            masked_sequential_row_means(
                self.s_y / np.maximum(self.s_x, epsilon),
                self.s_mask,
                self.s_counts,
            ),
        )

    def squared_distance_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean squared distance ``x^2 + y^2`` to the origin, both families."""
        return (
            masked_sequential_row_means(
                self.r_x**2 + self.r_y**2, self.r_mask, self.r_counts
            ),
            masked_sequential_row_means(
                self.s_x**2 + self.s_y**2, self.s_mask, self.s_counts
            ),
        )

    def paired_squared_distance_means(self) -> np.ndarray:
        """Mean squared distance between matched R and systolic peaks."""
        squared = (self.pr_x - self.ps_x) ** 2 + (self.pr_y - self.ps_y) ** 2
        return masked_sequential_row_means(
            squared, self.pair_mask, self.pair_counts
        )


def build_peak_geometry(batch: PortraitBatch) -> PeakGeometryBatch:
    """Gather a batch's ragged peak coordinates into padded matrices.

    One ``take_along_axis`` gather per coordinate family and coordinate.
    """
    r_idx, r_mask, r_counts = _pad_index_matrix(list(batch.r_peaks))
    s_idx, s_mask, s_counts = _pad_index_matrix(list(batch.systolic_peaks))
    pair_r, pair_s = [], []
    for pairs in batch.peak_pairs:
        pair_r.append(np.fromiter((a for a, _ in pairs), dtype=np.intp))
        pair_s.append(np.fromiter((b for _, b in pairs), dtype=np.intp))
    pr_idx, pair_mask, pair_counts = _pad_index_matrix(pair_r)
    ps_idx, _, _ = _pad_index_matrix(pair_s)
    take = np.take_along_axis
    return PeakGeometryBatch(
        r_x=take(batch.x, r_idx, axis=1),
        r_y=take(batch.y, r_idx, axis=1),
        r_mask=r_mask,
        r_counts=r_counts,
        s_x=take(batch.x, s_idx, axis=1),
        s_y=take(batch.y, s_idx, axis=1),
        s_mask=s_mask,
        s_counts=s_counts,
        pr_x=take(batch.x, pr_idx, axis=1),
        pr_y=take(batch.y, pr_idx, axis=1),
        ps_x=take(batch.x, ps_idx, axis=1),
        ps_y=take(batch.y, ps_idx, axis=1),
        pair_mask=pair_mask,
        pair_counts=pair_counts,
    )
