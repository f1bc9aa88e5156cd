"""Reduced features: geometric-only, the lightest detector version.

"The *reduced* feature extraction algorithm only uses the geometric
features from the simplified case."  Dropping the matrix features means the
50x50 occupancy grid is never built -- which is exactly where the Reduced
build's ~50 % FRAM saving and ~2x battery lifetime in Table III come from.
"""

from __future__ import annotations

import numpy as np

from repro.core.features.base import FeatureExtractor
from repro.core.features.batched import build_peak_geometry
from repro.core.features.simplified import SLOPE_EPSILON
from repro.core.portrait import PortraitBatch

__all__ = ["ReducedFeatureExtractor"]


class ReducedFeatureExtractor(FeatureExtractor):
    """The paper's *Reduced version*: 5 simplified geometric features."""

    requires_libm = False

    _NAMES = (
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
        geometry = build_peak_geometry(batch)
        return np.column_stack(
            [
                *geometry.slope_means(SLOPE_EPSILON),
                *geometry.squared_distance_means(),
                geometry.paired_squared_distance_means(),
            ]
        )
