"""The Original feature extractor: the full 8 features of Table I."""

from __future__ import annotations

import numpy as np

from repro.core.features.base import FeatureExtractor
from repro.core.features.batched import build_peak_geometry, spatial_filling_indices
from repro.core.portrait import PortraitBatch

__all__ = ["OriginalFeatureExtractor"]


class OriginalFeatureExtractor(FeatureExtractor):
    """Full implementation: std-dev, trapezoidal AUC, angles, distances.

    This is the detector the paper calls the *Original version*; it is the
    only variant that needs the C math library on the device.
    """

    requires_libm = True

    _NAMES = (
        "sfi",
        "col_avg_std",
        "col_avg_auc",
        "r_angle_avg",
        "systolic_angle_avg",
        "r_origin_dist_avg",
        "systolic_origin_dist_avg",
        "r_systolic_dist_avg",
    )

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._NAMES

    def _extract_batch(self, batch: PortraitBatch) -> np.ndarray:
        matrices = np.asarray(batch.occupancy_matrices(self.grid_n), dtype=np.float64)
        # Column averages (mean over each matrix's rows) form the ECG
        # occupancy profile; all three matrix features reduce the stacked
        # tensor in one pass.
        col_avg = matrices.mean(axis=1)
        geometry = build_peak_geometry(batch)
        return np.column_stack(
            [
                spatial_filling_indices(matrices),
                col_avg.std(axis=1),
                np.trapezoid(col_avg, axis=-1),
                *geometry.angle_means(),
                *geometry.distance_means(),
                geometry.paired_distance_means(),
            ]
        )
