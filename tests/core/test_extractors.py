"""Tests for the three version extractors as wholes."""

import numpy as np
import pytest

from repro.core.features import (
    OriginalFeatureExtractor,
    ReducedFeatureExtractor,
    SimplifiedFeatureExtractor,
)
from repro.core.versions import DetectorVersion, make_extractor
from repro.signals.dataset import SignalWindow

ALL_EXTRACTORS = [
    OriginalFeatureExtractor,
    SimplifiedFeatureExtractor,
    ReducedFeatureExtractor,
]


# A module-scoped fixture may depend on the session-scoped stream.
@pytest.fixture(scope="module")
def sample_windows(labeled_stream):
    return list(labeled_stream.windows[:6])


class TestExtractorContracts:
    @pytest.mark.parametrize("cls", ALL_EXTRACTORS)
    def test_vector_length_matches_names(self, cls, sample_windows):
        extractor = cls()
        features = extractor.extract_stream(sample_windows)
        assert features.shape == (len(sample_windows), extractor.n_features)
        assert np.isfinite(features).all()

    @pytest.mark.parametrize("cls", ALL_EXTRACTORS)
    def test_deterministic(self, cls, sample_windows):
        extractor = cls()
        a = extractor.extract_stream(sample_windows)
        b = extractor.extract_stream(sample_windows)
        assert np.array_equal(a, b)

    def test_feature_counts(self):
        assert OriginalFeatureExtractor().n_features == 8
        assert SimplifiedFeatureExtractor().n_features == 8
        assert ReducedFeatureExtractor().n_features == 5

    def test_libm_flags(self):
        assert OriginalFeatureExtractor.requires_libm is True
        assert SimplifiedFeatureExtractor.requires_libm is False
        assert ReducedFeatureExtractor.requires_libm is False

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            OriginalFeatureExtractor(grid_n=1)


def _first(cls, windows):
    """``cls``'s feature vector of the first window."""
    return cls().extract_stream(windows[:1])[0]


class TestCrossVersionRelations:
    def test_simplified_variance_is_square_of_original_std(self, sample_windows):
        original = _first(OriginalFeatureExtractor, sample_windows)
        simplified = _first(SimplifiedFeatureExtractor, sample_windows)
        assert simplified[1] == pytest.approx(original[1] ** 2, rel=1e-9)

    def test_auc_identical_across_versions(self, sample_windows):
        original = _first(OriginalFeatureExtractor, sample_windows)
        simplified = _first(SimplifiedFeatureExtractor, sample_windows)
        assert simplified[2] == pytest.approx(original[2], rel=1e-9)

    def test_sfi_identical_across_versions(self, sample_windows):
        original = _first(OriginalFeatureExtractor, sample_windows)
        simplified = _first(SimplifiedFeatureExtractor, sample_windows)
        assert simplified[0] == pytest.approx(original[0], rel=1e-9)

    def test_reduced_equals_simplified_geometric_tail(self, sample_windows):
        simplified = SimplifiedFeatureExtractor().extract_stream(sample_windows)
        reduced = ReducedFeatureExtractor().extract_stream(sample_windows)
        assert np.allclose(reduced, simplified[:, 3:])

    def test_squared_distances_consistent_with_original(self):
        """Squared-distance features are the squares only per-point; check
        the single-pair case explicitly via a window with one pair."""
        n = 360
        t = np.arange(n) / 360.0
        window = SignalWindow(
            ecg=np.sin(2 * np.pi * 1.1 * t),
            abp=np.cos(2 * np.pi * 1.1 * t),
            r_peaks=np.array([100], dtype=np.intp),
            systolic_peaks=np.array([180], dtype=np.intp),
            sample_rate=360.0,
        )
        original = _first(OriginalFeatureExtractor, [window])
        simplified = _first(SimplifiedFeatureExtractor, [window])
        assert simplified[7] == pytest.approx(original[7] ** 2, rel=1e-6)


class TestAffineInvariance:
    """Min-max normalization makes every feature invariant to sensor gain
    and offset -- the property that lets one model serve uncalibrated
    hardware.  Verified as a hypothesis property over random affine maps."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        ecg_gain=st.floats(0.1, 50.0),
        ecg_offset=st.floats(-100.0, 100.0),
        abp_gain=st.floats(0.1, 50.0),
        abp_offset=st.floats(-100.0, 100.0),
    )
    def test_property_features_gain_offset_invariant(
        self, labeled_stream, ecg_gain, ecg_offset, abp_gain, abp_offset
    ):
        import numpy as np

        window = labeled_stream.windows[0]
        scaled = SignalWindow(
            ecg=window.ecg * ecg_gain + ecg_offset,
            abp=window.abp * abp_gain + abp_offset,
            r_peaks=window.r_peaks,
            systolic_peaks=window.systolic_peaks,
            sample_rate=window.sample_rate,
        )
        for cls in ALL_EXTRACTORS:
            original, transformed = cls().extract_stream([window, scaled])
            np.testing.assert_allclose(
                transformed, original, rtol=1e-6, atol=1e-7
            )


class TestMakeExtractor:
    def test_maps_versions(self):
        assert isinstance(
            make_extractor(DetectorVersion.ORIGINAL), OriginalFeatureExtractor
        )
        assert isinstance(
            make_extractor(DetectorVersion.SIMPLIFIED), SimplifiedFeatureExtractor
        )
        assert isinstance(
            make_extractor(DetectorVersion.REDUCED), ReducedFeatureExtractor
        )

    def test_grid_propagates(self):
        assert make_extractor(DetectorVersion.ORIGINAL, grid_n=25).grid_n == 25

    def test_extract_stream_shape(self, labeled_stream):
        extractor = make_extractor(DetectorVersion.SIMPLIFIED)
        X = extractor.extract_stream(list(labeled_stream.windows[:4]))
        assert X.shape == (4, 8)

    def test_extract_stream_empty(self):
        extractor = make_extractor(DetectorVersion.REDUCED)
        assert extractor.extract_stream([]).shape == (0, 5)
