"""Simplified features: the paper's libm-free approximations.

Section III's simplified feature extraction replaces every operation that
would need the C math library:

* standard deviation of the column averages -> **variance** (no ``sqrt``);
* trapezoidal AUC -> the composite-sum formula (identical value, libm-free
  evaluation);
* angle of a peak point -> **slope** ``y / x`` (its tangent, no ``atan``);
* Euclidean distances -> **squared** distances (no ``sqrt``).

Slope denominators are clamped at ``SLOPE_EPSILON`` to mirror the
saturating division the device build performs for points on (or numerically
at) the y-axis.
"""

from __future__ import annotations

import numpy as np

from repro.core.features.base import FeatureExtractor
from repro.core.features.batched import build_peak_geometry, spatial_filling_indices
from repro.core.portrait import PortraitBatch

__all__ = ["SLOPE_EPSILON", "SimplifiedFeatureExtractor"]

#: Minimum slope denominator; matches one LSB of the device's Q-format
#: x coordinate at the default 14 fractional bits.
SLOPE_EPSILON = 1.0 / (1 << 14)


class SimplifiedFeatureExtractor(FeatureExtractor):
    """The paper's *Simplified version*: 8 features, no libm."""

    requires_libm = False

    _NAMES = (
        "sfi",
        "col_avg_var",
        "col_avg_auc",
        "r_slope_avg",
        "systolic_slope_avg",
        "r_origin_sqdist_avg",
        "systolic_origin_sqdist_avg",
        "r_systolic_sqdist_avg",
    )

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._NAMES

    def _extract_batch(self, batch: PortraitBatch) -> np.ndarray:
        matrices = np.asarray(batch.occupancy_matrices(self.grid_n), dtype=np.float64)
        col_avg = matrices.mean(axis=1)
        geometry = build_peak_geometry(batch)
        return np.column_stack(
            [
                spatial_filling_indices(matrices),
                col_avg.var(axis=1),
                # The paper's composite-sum integral with unit node spacing:
                # (b - a) / (2 N) * sum(f_k + f_{k+1}), i.e. the trapezoid
                # rule evaluated without libm.
                0.5 * np.sum(col_avg[:, :-1] + col_avg[:, 1:], axis=1),
                *geometry.slope_means(SLOPE_EPSILON),
                *geometry.squared_distance_means(),
                geometry.paired_squared_distance_means(),
            ]
        )
