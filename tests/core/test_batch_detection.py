"""The batch detection path must match the per-window oracle bit-for-bit.

The detection path (``extract_stream`` -> one ``scaler.transform`` -> one
``decision_function``) scores whole batches for throughput; every score it
produces must equal the per-window reference formulas of
``tests/core/oracle.py`` *exactly* -- the per-window computation is the
on-device reference, and the committed benchmark tables were first
produced window by window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import SIFTDetector
from repro.core.features.batched import group_by_length, spatial_filling_indices
from repro.core.portrait import build_portrait_batch, normalize_rows
from repro.core.streaming import StreamingDetector
from repro.core.versions import DetectorVersion, make_extractor
from repro.signals.dataset import SignalWindow
from tests.core import oracle
from tests.core.oracle import build_portrait, normalize_signal, spatial_filling_index


class TestBatchedPrimitives:
    def test_normalize_rows_matches_normalize_signal(self, labeled_stream):
        signals = np.stack([w.ecg for w in labeled_stream.windows])
        batched = normalize_rows(signals)
        for i, window in enumerate(labeled_stream.windows):
            assert np.array_equal(batched[i], normalize_signal(window.ecg))

    def test_normalize_rows_flat_row(self):
        signals = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        batched = normalize_rows(signals)
        assert np.array_equal(batched[1], np.full(3, 0.5))
        assert np.array_equal(batched[0], np.array([0.0, 0.5, 1.0]))

    def test_occupancy_matrices_match_scalar(self, labeled_stream):
        windows = labeled_stream.windows[:6]
        batch = build_portrait_batch(windows)
        matrices = batch.occupancy_matrices(50)
        for i, window in enumerate(windows):
            scalar = build_portrait(window).occupancy_matrix(50)
            assert np.array_equal(matrices[i], scalar)

    def test_spatial_filling_indices_match_scalar(self, labeled_stream):
        windows = labeled_stream.windows[:6]
        matrices = build_portrait_batch(windows).occupancy_matrices(50)
        batched = spatial_filling_indices(np.asarray(matrices, dtype=np.float64))
        for i in range(len(windows)):
            assert batched[i] == spatial_filling_index(matrices[i])

    def test_spatial_filling_indices_empty_matrix(self):
        matrices = np.zeros((2, 4, 4))
        matrices[1, 0, 0] = 8.0
        out = spatial_filling_indices(matrices)
        assert out[0] == 0.0
        assert out[1] == 16.0  # all mass in one cell -> n^2

    def test_group_by_length_keeps_input_order(self, labeled_stream):
        windows = list(labeled_stream.windows[:3])
        short = windows[0].__class__(
            ecg=windows[0].ecg[:-7],
            abp=windows[0].abp[:-7],
            sample_rate=windows[0].sample_rate,
            r_peaks=np.array([], dtype=np.intp),
            systolic_peaks=np.array([], dtype=np.intp),
            altered=False,
        )
        groups = group_by_length([short] + windows + [short])
        assert groups == {short.n_samples: [0, 4], windows[0].n_samples: [1, 2, 3]}
        with pytest.raises(ValueError):
            build_portrait_batch(windows + [short])

    def test_portrait_batch_coordinates_match(self, labeled_stream):
        windows = labeled_stream.windows[:4]
        batch = build_portrait_batch(windows)
        for i, window in enumerate(windows):
            scalar = build_portrait(window)
            assert np.array_equal(batch.x[i], scalar.x)
            assert np.array_equal(batch.y[i], scalar.y)
            assert batch.peak_pairs[i] == scalar.peak_pairs


class TestExtractStreamEquivalence:
    @pytest.mark.parametrize("version", list(DetectorVersion))
    def test_features_match_per_window_exactly(
        self, trained_detectors, labeled_stream, version
    ):
        extractor = trained_detectors[version].extractor
        batched = extractor.extract_stream(labeled_stream)
        assert batched.shape == (len(labeled_stream), extractor.n_features)
        for i, window in enumerate(labeled_stream.windows):
            assert np.array_equal(batched[i], oracle.features(extractor, window))

    def test_empty_stream(self, trained_detectors):
        extractor = trained_detectors[DetectorVersion.REDUCED].extractor
        out = extractor.extract_stream([])
        assert out.shape == (0, extractor.n_features)

    def test_ragged_windows_fall_back(self, trained_detectors, labeled_stream):
        """Unequal window lengths are extracted one length group at a time."""
        extractor = trained_detectors[DetectorVersion.SIMPLIFIED].extractor
        full = labeled_stream.windows[0]
        record_like = full.__class__(
            ecg=full.ecg[:-11],
            abp=full.abp[:-11],
            sample_rate=full.sample_rate,
            r_peaks=full.r_peaks[full.r_peaks < full.ecg.size - 11],
            systolic_peaks=full.systolic_peaks[
                full.systolic_peaks < full.ecg.size - 11
            ],
            altered=False,
        )
        windows = [full, record_like]
        batched = extractor.extract_stream(windows)
        for i, window in enumerate(windows):
            assert np.array_equal(batched[i], oracle.features(extractor, window))


class TestDecisionValuesEquivalence:
    @pytest.mark.parametrize("version", list(DetectorVersion))
    def test_scores_match_scalar_exactly(
        self, trained_detectors, labeled_stream, version
    ):
        """The acceptance criterion: exact float equality, all versions."""
        detector = trained_detectors[version]
        batched = detector.decision_values(labeled_stream)
        scalar = np.array(
            [oracle.decision_value(detector, w) for w in labeled_stream.windows]
        )
        assert np.array_equal(batched, scalar)
        single = [detector.decision_value(w) for w in labeled_stream.windows]
        assert np.array_equal(batched, single)

    def test_rbf_kernel_scores_match(self, train_record, train_donors, labeled_stream):
        detector = SIFTDetector(version="reduced", kernel="rbf")
        detector.fit(train_record, train_donors)
        batched = detector.decision_values(labeled_stream)
        scalar = np.array(
            [oracle.decision_value(detector, w) for w in labeled_stream.windows]
        )
        assert np.array_equal(batched, scalar)

    def test_classify_stream_thresholds_scores(
        self, trained_detectors, labeled_stream
    ):
        detector = trained_detectors[DetectorVersion.ORIGINAL]
        assert np.array_equal(
            detector.classify_stream(labeled_stream),
            detector.decision_values(labeled_stream) >= 0.0,
        )

    def test_inspect_stream_alerts_carry_batch_values(
        self, trained_detectors, labeled_stream
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        predictions, log = detector.inspect_stream(labeled_stream)
        values = detector.decision_values(labeled_stream)
        assert np.array_equal(predictions, values >= 0.0)
        assert len(log) == int(predictions.sum())
        for alert in log.alerts:
            assert alert.decision_value == values[alert.window_index]
            assert alert.decision_value >= 0.0

    def test_evaluate_matches_per_window_path(
        self, trained_detectors, labeled_stream
    ):
        detector = trained_detectors[DetectorVersion.REDUCED]
        report = detector.evaluate(labeled_stream)
        scalar_pred = np.array(
            [oracle.decision_value(detector, w) >= 0.0 for w in labeled_stream.windows]
        )
        from repro.ml.metrics import score_predictions

        scalar_report = score_predictions(scalar_pred, labeled_stream.labels)
        assert report == scalar_report

    def test_empty_stream_scores(self, trained_detectors):
        detector = trained_detectors[DetectorVersion.REDUCED]
        assert detector.decision_values([]).shape == (0,)


class TestProcessStreamEquivalence:
    def test_episodes_match_per_window_loop(
        self, trained_detectors, labeled_stream
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        serial = StreamingDetector(detector, votes_needed=2, vote_window=3)
        for window in labeled_stream.windows:
            serial.process_window(window)
        serial.finish()

        batched = StreamingDetector(detector, votes_needed=2, vote_window=3)
        batched.process_stream(labeled_stream)
        batched.finish()

        assert batched.episodes == serial.episodes


def _tier_extractors():
    return [make_extractor(version) for version in DetectorVersion]


@st.composite
def _ragged_windows(draw):
    """One window of a drawn length with 0, 1 or 8+ peaks per family."""
    n = draw(st.sampled_from([40, 64, 97]))
    sample = st.floats(-10.0, 10.0, allow_nan=False, width=64)
    ecg = draw(st.lists(sample, min_size=n, max_size=n))
    abp = draw(st.lists(sample, min_size=n, max_size=n))
    index = st.integers(0, n - 1)

    def peaks():
        size = draw(st.sampled_from([(0, 0), (1, 1), (8, 16)]))
        return sorted(draw(st.sets(index, min_size=size[0], max_size=size[1])))

    return SignalWindow(
        ecg=np.array(ecg),
        abp=np.array(abp),
        r_peaks=np.array(peaks(), dtype=np.intp),
        systolic_peaks=np.array(peaks(), dtype=np.intp),
        sample_rate=draw(st.sampled_from([40.0, 125.0, 360.0])),
    )


class TestRaggedStreams:
    @settings(max_examples=40, deadline=None)
    @given(windows=st.lists(_ragged_windows(), min_size=1, max_size=7))
    def test_rows_match_oracle_in_input_order(self, windows):
        for extractor in _tier_extractors():
            assert np.array_equal(
                extractor.extract_stream(windows),
                oracle.feature_matrix(extractor, windows),
            )


def _with_nan(window, index=5):
    ecg = window.ecg.copy()
    ecg[index] = np.nan
    return SignalWindow(
        ecg=ecg,
        abp=window.abp,
        r_peaks=window.r_peaks,
        systolic_peaks=window.systolic_peaks,
        sample_rate=window.sample_rate,
    )


class TestMalformedInput:
    """A NaN sample has no occupancy cell: the matrix tiers must reject the
    window by its stream position instead of casting NaN to an index."""

    @pytest.mark.parametrize(
        "version", [DetectorVersion.ORIGINAL, DetectorVersion.SIMPLIFIED]
    )
    def test_matrix_tiers_name_the_window(self, labeled_stream, version):
        windows = list(labeled_stream.windows[:3])
        short = SignalWindow(
            ecg=windows[0].ecg[:-9],
            abp=windows[0].abp[:-9],
            r_peaks=np.array([], dtype=np.intp),
            systolic_peaks=np.array([], dtype=np.intp),
            sample_rate=windows[0].sample_rate,
        )
        extractor = make_extractor(version)
        stream = [windows[0], short, windows[1], _with_nan(windows[2])]
        with pytest.raises(ValueError, match=r"window 3 of the stream"):
            extractor.extract_stream(stream)
        ragged = [windows[0], _with_nan(short), windows[1]]
        with pytest.raises(ValueError, match=r"window 1 of the stream"):
            extractor.extract_stream(ragged)

    def test_detector_entries_raise_the_same_error(
        self, trained_detectors, labeled_stream
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        bad = _with_nan(labeled_stream.windows[1])
        with pytest.raises(ValueError, match=r"window 1 of the stream"):
            detector.decision_values([labeled_stream.windows[0], bad])
        with pytest.raises(ValueError, match=r"window 0 of the stream"):
            detector.decision_value(bad)

    def test_chunked_scoring_names_the_stream_position(
        self, trained_detectors, labeled_stream
    ):
        detector = trained_detectors[DetectorVersion.ORIGINAL]
        windows = list(labeled_stream.windows[:9])
        windows[6] = _with_nan(windows[6])
        with pytest.raises(ValueError, match=r"window 6 of the stream"):
            detector.classify_stream(windows, chunk_size=4)

    def test_reduced_propagates_nan(self, labeled_stream):
        windows = [labeled_stream.windows[0], _with_nan(labeled_stream.windows[1])]
        features = make_extractor(DetectorVersion.REDUCED).extract_stream(windows)
        assert np.isfinite(features[0]).all()
        assert np.isnan(features[1]).all()
