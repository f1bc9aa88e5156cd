"""Vectorized peak geometry must match the per-window oracle bit-for-bit.

Property-based equivalence suite for :class:`PeakGeometryBatch`: across
all three detector tiers, ragged peak counts (zero, one, many -- padded
matrices never blur the families together), and chunked vs one-shot
extraction, every batched value must equal the oracle helper's output
*exactly*.  The per-window computation is the on-device reference.

The load-bearing contract is the sequential mean: both sides accumulate
left to right (``sequential_mean`` oracle-side, column-by-column
accumulation batch-side).  Pairwise ``np.mean`` would re-associate at
8+ peaks, so the hypothesis cases deliberately include windows with
more than eight peaks of a kind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features.batched import (
    build_peak_geometry,
    iter_window_chunks,
    masked_sequential_row_means,
)
from repro.core.features.original import OriginalFeatureExtractor
from repro.core.features.reduced import ReducedFeatureExtractor
from repro.core.features.simplified import SLOPE_EPSILON, SimplifiedFeatureExtractor
from repro.core.portrait import build_portrait_batch
from repro.signals.dataset import SignalWindow
from tests.core import oracle
from tests.core.oracle import (
    average_paired_distance,
    average_peak_angle,
    average_peak_distance,
    average_peak_slope,
    average_squared_paired_distance,
    average_squared_peak_distance,
    build_portrait,
    sequential_mean,
)

EXTRACTORS = (
    OriginalFeatureExtractor,
    SimplifiedFeatureExtractor,
    ReducedFeatureExtractor,
)

#: Samples per generated window; small keeps hypothesis fast while still
#: leaving room for >8 peaks (the pairwise-summation regime).
N_SAMPLES = 64
SAMPLE_RATE = 360.0


@st.composite
def signal_windows(draw):
    """One window with arbitrary signals and ragged peak index sets."""
    ecg = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False, width=64),
            min_size=N_SAMPLES,
            max_size=N_SAMPLES,
        )
    )
    abp = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False, width=64),
            min_size=N_SAMPLES,
            max_size=N_SAMPLES,
        )
    )
    indices = st.integers(0, N_SAMPLES - 1)
    r_peaks = sorted(draw(st.sets(indices, min_size=0, max_size=12)))
    s_peaks = sorted(draw(st.sets(indices, min_size=0, max_size=12)))
    return SignalWindow(
        ecg=np.array(ecg),
        abp=np.array(abp),
        sample_rate=SAMPLE_RATE,
        r_peaks=np.array(r_peaks, dtype=np.intp),
        systolic_peaks=np.array(s_peaks, dtype=np.intp),
    )


def _window(rng, r_peaks, s_peaks):
    return SignalWindow(
        ecg=rng.random(N_SAMPLES),
        abp=rng.random(N_SAMPLES),
        sample_rate=SAMPLE_RATE,
        r_peaks=np.array(r_peaks, dtype=np.intp),
        systolic_peaks=np.array(s_peaks, dtype=np.intp),
    )


@pytest.fixture()
def edge_windows(rng):
    """Every ragged-count regime: zero, one, many, and mixed families."""
    dense = list(range(2, N_SAMPLES - 2, 5))  # 12 peaks: past pairwise cutoff
    return [
        _window(rng, [], []),
        _window(rng, [7], []),
        _window(rng, [], [11]),
        _window(rng, [7], [11]),
        _window(rng, dense, dense[1:]),
        _window(rng, [3], dense),
    ]


class TestSequentialMeanContract:
    @given(
        st.lists(st.floats(0.0, 100.0, allow_nan=False, width=64), min_size=1, max_size=40)
    )
    @settings(max_examples=50, deadline=None)
    def test_sequential_mean_is_the_left_to_right_loop(self, values):
        total = 0.0
        for value in values:
            total = total + value
        assert sequential_mean(np.array(values)) == total / len(values)

    @given(
        st.lists(
            st.lists(
                st.floats(0.0, 100.0, allow_nan=False, width=64),
                min_size=0,
                max_size=15,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_masked_row_means_match_sequential_mean_per_row(self, rows):
        k = max(len(row) for row in rows)
        values = np.zeros((len(rows), k))
        mask = np.zeros((len(rows), k), dtype=bool)
        for i, row in enumerate(rows):
            values[i, : len(row)] = row
            mask[i, : len(row)] = True
        counts = np.array([len(row) for row in rows])
        out = masked_sequential_row_means(values, mask, counts)
        for i, row in enumerate(rows):
            expected = sequential_mean(np.array(row)) if row else 0.0
            assert out[i] == expected

    def test_all_empty_rows_yield_zero_width_matrix_and_zeros(self):
        out = masked_sequential_row_means(
            np.empty((3, 0)), np.empty((3, 0), dtype=bool), np.zeros(3, dtype=int)
        )
        assert np.array_equal(out, np.zeros(3))


class TestScalarHelperContract:
    """Pin the oracle's zero-peak/single-peak geometry contract."""

    def test_empty_points_yield_zero(self):
        empty = np.empty((0, 2))
        assert average_peak_angle(empty) == 0.0
        assert average_peak_distance(empty) == 0.0
        assert average_paired_distance(empty, empty) == 0.0
        assert average_peak_slope(empty) == 0.0
        assert average_squared_peak_distance(empty) == 0.0
        assert average_squared_paired_distance(empty, empty) == 0.0

    def test_single_point_is_its_own_mean(self):
        point = np.array([[0.25, 0.75]])
        assert average_peak_angle(point) == float(np.arctan2(0.75, 0.25))
        assert average_peak_distance(point) == float(np.sqrt(0.25**2 + 0.75**2))
        assert average_peak_slope(point) == 0.75 / 0.25
        assert average_squared_peak_distance(point) == 0.25**2 + 0.75**2

    def test_slope_clamps_on_the_y_axis(self):
        assert average_peak_slope(np.array([[0.0, 1.0]])) == 1.0 / SLOPE_EPSILON


class TestBatchGeometryEquivalence:
    @pytest.mark.parametrize("extractor_cls", EXTRACTORS)
    def test_edge_windows_bit_identical(self, extractor_cls, edge_windows):
        extractor = extractor_cls(grid_n=50)
        batched = extractor.extract_stream(edge_windows)
        for i, window in enumerate(edge_windows):
            scalar = oracle.features(extractor, window)
            assert np.array_equal(batched[i], scalar), (extractor_cls, i)

    @pytest.mark.parametrize("extractor_cls", EXTRACTORS)
    @given(windows=st.lists(signal_windows(), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_windows_bit_identical(self, extractor_cls, windows):
        extractor = extractor_cls(grid_n=10)
        batched = extractor.extract_stream(windows)
        for i, window in enumerate(windows):
            scalar = oracle.features(extractor, window)
            assert np.array_equal(batched[i], scalar)

    @pytest.mark.parametrize("extractor_cls", EXTRACTORS)
    def test_chunked_extraction_matches_one_shot(
        self, extractor_cls, edge_windows, labeled_stream
    ):
        """Chunk boundaries change the padding width (each chunk pads to
        its own max count) but never the values."""
        extractor = extractor_cls(grid_n=50)
        windows = list(labeled_stream.windows[:6]) + edge_windows
        one_shot = extractor.extract_stream(windows)
        for chunk_size in (1, 4, 5, len(windows)):
            chunked = np.vstack(
                [
                    extractor.extract_stream(chunk)
                    for chunk in iter_window_chunks(windows, chunk_size)
                ]
            )
            assert np.array_equal(chunked, one_shot), chunk_size

    def test_stream_windows_bit_identical_all_tiers(self, labeled_stream):
        for extractor_cls in EXTRACTORS:
            extractor = extractor_cls(grid_n=50)
            batched = extractor.extract_stream(labeled_stream)
            for i, window in enumerate(labeled_stream.windows):
                scalar = oracle.features(extractor, window)
                assert np.array_equal(batched[i], scalar)


class TestPeakGeometryBatchShape:
    def test_padded_matrices_cover_the_ragged_counts(self, edge_windows):
        batch = build_portrait_batch(edge_windows)
        geometry = build_peak_geometry(batch)
        for i in range(len(batch)):
            assert geometry.r_counts[i] == len(batch.r_peaks[i])
            assert geometry.s_counts[i] == len(batch.systolic_peaks[i])
            assert geometry.pair_counts[i] == len(batch.peak_pairs[i])
            assert geometry.r_mask[i].sum() == len(batch.r_peaks[i])
        assert geometry.r_x.shape[1] == max(len(r) for r in batch.r_peaks)

    def test_gathered_coordinates_match_portrait_points(self, edge_windows):
        geometry = build_peak_geometry(build_portrait_batch(edge_windows))
        for i, window in enumerate(edge_windows):
            portrait = build_portrait(window)
            points = portrait.r_peak_points()
            count = len(portrait.r_peaks)
            assert np.array_equal(geometry.r_x[i, :count], points[:, 0])
            assert np.array_equal(geometry.r_y[i, :count], points[:, 1])
            paired_r, paired_s = portrait.paired_peak_points()
            n_pairs = len(portrait.peak_pairs)
            assert np.array_equal(geometry.pr_x[i, :n_pairs], paired_r[:, 0])
            assert np.array_equal(geometry.ps_y[i, :n_pairs], paired_s[:, 1])
