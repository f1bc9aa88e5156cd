"""Tests for portrait construction.

The per-window portrait (normalization, peak pairing) is the test
oracle's (``tests/core/oracle.py``); the occupancy grid is checked on the
production :class:`~repro.core.portrait.PortraitBatch`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.portrait import PortraitBatch, build_portrait_batch
from tests.core.oracle import build_portrait, normalize_signal
from repro.signals.dataset import SignalWindow


def _window(ecg, abp, r=(), s=(), fs=360.0):
    return SignalWindow(
        ecg=np.asarray(ecg, dtype=np.float64),
        abp=np.asarray(abp, dtype=np.float64),
        r_peaks=np.asarray(r, dtype=np.intp),
        systolic_peaks=np.asarray(s, dtype=np.intp),
        sample_rate=fs,
    )


class TestNormalizeSignal:
    def test_maps_to_unit_interval(self):
        out = normalize_signal(np.array([2.0, 4.0, 6.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_flat_signal_maps_to_half(self):
        assert np.allclose(normalize_signal(np.full(5, 3.0)), 0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            shape=st.integers(1, 200),
            elements=st.floats(-1e6, 1e6),
        )
    )
    def test_property_bounded(self, x):
        out = normalize_signal(x)
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)


class TestBuildPortrait:
    def test_coordinates_are_normalized_signals(self, labeled_stream):
        window = labeled_stream.windows[0]
        portrait = build_portrait(window)
        assert np.allclose(portrait.x, normalize_signal(window.abp))
        assert np.allclose(portrait.y, normalize_signal(window.ecg))

    def test_pairs_follow_match_rule(self):
        window = _window(
            np.sin(np.arange(1080) / 30.0),
            np.cos(np.arange(1080) / 30.0),
            r=[100, 500],
            s=[180, 590, 1000],
        )
        portrait = build_portrait(window)
        assert portrait.peak_pairs == ((100, 180), (500, 590))

    def test_r_peak_points_shape(self, labeled_stream):
        portrait = build_portrait(labeled_stream.windows[0])
        points = portrait.r_peak_points()
        assert points.shape == (portrait.r_peaks.size, 2)
        assert np.all((points >= 0) & (points <= 1))

    def test_paired_points_empty_when_no_pairs(self):
        window = _window(np.arange(100.0), np.arange(100.0))
        portrait = build_portrait(window)
        r_pts, s_pts = portrait.paired_peak_points()
        assert r_pts.shape == (0, 2)
        assert s_pts.shape == (0, 2)


def _batch(x, y):
    """A one-window batch over given portrait coordinates, no peaks."""
    return PortraitBatch(
        x=np.atleast_2d(x),
        y=np.atleast_2d(y),
        r_peaks=(np.array([], dtype=np.intp),),
        systolic_peaks=(np.array([], dtype=np.intp),),
        peak_pairs=((),),
    )


class TestOccupancyMatrix:
    def test_counts_sum_to_points(self, labeled_stream):
        window = labeled_stream.windows[0]
        matrix = build_portrait_batch([window]).occupancy_matrices(50)[0]
        assert matrix.shape == (50, 50)
        assert matrix.sum() == window.n_samples

    def test_known_placement(self):
        """Columns index the ECG axis, rows the ABP axis."""
        batch = _batch(
            x=np.array([0.0, 0.99]),  # ABP -> rows 0 and 49
            y=np.array([0.99, 0.0]),  # ECG -> cols 49 and 0
        )
        matrix = batch.occupancy_matrices(50)[0]
        assert matrix[0, 49] == 1
        assert matrix[49, 0] == 1
        assert matrix.sum() == 2

    def test_boundary_value_lands_in_last_cell(self):
        matrix = _batch(x=np.array([1.0]), y=np.array([1.0])).occupancy_matrices(10)
        assert matrix[0, 9, 9] == 1

    def test_rejects_bad_grid(self):
        batch = build_portrait_batch([_window(np.arange(10.0), np.arange(10.0))])
        with pytest.raises(ValueError):
            batch.occupancy_matrices(0)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 60),
        size=st.integers(1, 300),
        seed=st.integers(0, 10_000),
    )
    def test_property_total_preserved(self, n, size, seed):
        rng = np.random.default_rng(seed)
        matrix = _batch(x=rng.random(size), y=rng.random(size)).occupancy_matrices(n)
        assert matrix.sum() == size
        assert np.all(matrix >= 0)
