"""Tests for matrix and geometric feature primitives.

The checks run against the production batched primitives: SFI over
occupancy tensors, and :class:`PeakGeometryBatch` over portraits whose
points are given explicitly.  Argument validation and the AUC formulas
on bare curves belong to the per-window oracle (``tests/core/oracle.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import OriginalFeatureExtractor, SimplifiedFeatureExtractor
from repro.core.features.batched import build_peak_geometry, spatial_filling_indices
from repro.core.features.simplified import SLOPE_EPSILON
from repro.core.portrait import PortraitBatch
from tests.core.oracle import (
    auc_composite,
    auc_trapezoid,
    average_paired_distance,
    average_peak_angle,
    column_averages,
    spatial_filling_index,
)


def _sfi(matrix) -> float:
    return float(spatial_filling_indices(np.asarray(matrix)[None])[0])


def _geometry(r_points=(), s_points=(), paired=False):
    """Peak geometry of one window whose portrait holds exactly these points.

    R points come first, then systolic points; ``paired`` matches them in
    order.  A trailing filler point keeps the portrait non-empty.
    """
    r = np.asarray(r_points, dtype=np.float64).reshape(-1, 2)
    s = np.asarray(s_points, dtype=np.float64).reshape(-1, 2)
    points = np.vstack([r, s, [[0.5, 0.5]]])
    r_idx = np.arange(len(r), dtype=np.intp)
    s_idx = len(r) + np.arange(len(s), dtype=np.intp)
    pairs = tuple(zip(r_idx.tolist(), s_idx.tolist())) if paired else ()
    batch = PortraitBatch(
        x=points[None, :, 0],
        y=points[None, :, 1],
        r_peaks=(r_idx,),
        systolic_peaks=(s_idx,),
        peak_pairs=(pairs,),
    )
    return build_peak_geometry(batch)


class TestSpatialFillingIndex:
    def test_uniform_matrix_is_one(self):
        assert _sfi(np.ones((50, 50))) == pytest.approx(1.0)

    def test_concentrated_matrix_is_n_squared(self):
        matrix = np.zeros((10, 10))
        matrix[3, 7] = 42
        assert _sfi(matrix) == pytest.approx(100.0)

    def test_empty_matrix_is_zero(self):
        assert _sfi(np.zeros((10, 10))) == 0.0

    def test_scale_invariant(self):
        matrix = np.random.default_rng(0).integers(0, 9, size=(20, 20))
        assert _sfi(matrix) == pytest.approx(_sfi(matrix * 7))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spatial_filling_index(np.zeros((3, 4)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 9999))
    def test_property_bounds(self, n, seed):
        matrix = np.random.default_rng(seed).integers(0, 5, size=(n, n))
        if matrix.sum() == 0:
            return
        sfi = _sfi(matrix)
        assert 1.0 - 1e-9 <= sfi <= n * n + 1e-9


class TestColumnAverages:
    def test_shape_and_values(self):
        matrix = np.array([[1, 2], [3, 4]])
        assert np.allclose(column_averages(matrix), [2.0, 3.0])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            column_averages(np.array([1, 2, 3]))


class TestAUC:
    def test_trapezoid_of_constant(self):
        assert auc_trapezoid(np.full(11, 2.0)) == pytest.approx(20.0)

    def test_composite_equals_trapezoid(self, labeled_stream):
        """The paper's composite-sum formula IS the trapezoid rule: the
        Simplified build's AUC column tracks the Original build's."""
        original = OriginalFeatureExtractor().extract_stream(labeled_stream)
        simplified = SimplifiedFeatureExtractor().extract_stream(labeled_stream)
        np.testing.assert_allclose(simplified[:, 2], original[:, 2], rtol=1e-12)

    def test_short_curves(self):
        assert auc_trapezoid(np.array([1.0])) == 0.0
        assert auc_composite(np.array([1.0])) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        curve=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=60)
    )
    def test_property_agreement(self, curve):
        curve = np.array(curve)
        assert auc_composite(curve) == pytest.approx(
            auc_trapezoid(curve), rel=1e-9, abs=1e-9
        )


class TestGeometricOriginal:
    def test_average_angle_of_known_points(self):
        geometry = _geometry([[1.0, 1.0], [1.0, 0.0]])  # 45 deg and 0 deg
        assert geometry.angle_means()[0][0] == pytest.approx(np.pi / 8)

    def test_average_distance(self):
        geometry = _geometry([[3.0, 4.0], [0.0, 1.0]])
        assert geometry.distance_means()[0][0] == pytest.approx(3.0)

    def test_paired_distance(self):
        geometry = _geometry(
            [[0.0, 0.0], [1.0, 1.0]], [[3.0, 4.0], [1.0, 1.0]], paired=True
        )
        assert geometry.paired_distance_means()[0] == pytest.approx(2.5)

    def test_empty_inputs_yield_zero(self):
        geometry = _geometry()
        assert np.array_equal(geometry.angle_means(), [[0.0], [0.0]])
        assert np.array_equal(geometry.distance_means(), [[0.0], [0.0]])
        assert geometry.paired_distance_means()[0] == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            average_peak_angle(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            average_paired_distance(np.zeros((2, 2)), np.zeros((3, 2)))


class TestGeometricSimplified:
    def test_slope_is_tangent_of_angle(self):
        geometry = _geometry([[0.5, 0.25]])
        assert geometry.slope_means(SLOPE_EPSILON)[0][0] == pytest.approx(0.5)

    def test_slope_clamps_near_zero_x(self):
        geometry = _geometry([[0.0, 1.0]], [[0.0, 0.5]])
        r_slope, s_slope = geometry.slope_means(SLOPE_EPSILON)
        assert r_slope[0] == 1.0 / SLOPE_EPSILON
        assert s_slope[0] == 0.5 / SLOPE_EPSILON

    def test_squared_distance(self):
        geometry = _geometry([[3.0, 4.0]])
        assert geometry.squared_distance_means()[0][0] == pytest.approx(25.0)

    def test_squared_paired_distance(self):
        geometry = _geometry([[0.0, 0.0]], [[3.0, 4.0]], paired=True)
        assert geometry.paired_squared_distance_means()[0] == pytest.approx(25.0)

    def test_squared_is_square_of_original_for_single_point(self):
        geometry = _geometry([[0.6, 0.8]])
        assert geometry.squared_distance_means()[0][0] == pytest.approx(
            geometry.distance_means()[0][0] ** 2
        )

    def test_empty_inputs_yield_zero(self):
        geometry = _geometry()
        assert np.array_equal(geometry.slope_means(SLOPE_EPSILON), [[0.0], [0.0]])
        assert np.array_equal(geometry.squared_distance_means(), [[0.0], [0.0]])
        assert geometry.paired_squared_distance_means()[0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        pts=st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=10,
        )
    )
    def test_property_slope_matches_atan(self, pts):
        """For portrait-range points, slope = tan(angle) per point."""
        points = np.array(pts)
        slopes = points[:, 1] / points[:, 0]
        assert _geometry(points).slope_means(SLOPE_EPSILON)[0][0] == pytest.approx(
            float(np.mean(slopes)), rel=1e-9
        )
