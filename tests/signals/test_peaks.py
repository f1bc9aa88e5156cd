"""Tests for R-peak and systolic-peak detection and pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signals.dataset import SyntheticFantasia
from repro.signals.peaks import (
    _enforce_refractory,
    _refine,
    detect_r_peaks,
    detect_systolic_peaks,
    match_peaks,
    peak_indices_in_window,
)
from tests.signals import oracle

FS = 360.0


class TestDetectRPeaks:
    def test_matches_ground_truth_on_clean_record(self, dataset, victim):
        record = dataset.record(victim, 60.0, purpose="extra")
        detected = detect_r_peaks(record.ecg, FS)
        assert abs(detected.size - record.r_peaks.size) <= 1
        errors = np.abs(detected[:, None] - record.r_peaks[None, :]).min(axis=1)
        assert np.median(errors) <= 2

    def test_respects_refractory_period(self, dataset, victim):
        record = dataset.record(victim, 60.0, purpose="extra")
        detected = detect_r_peaks(record.ecg, FS, refractory_s=0.25)
        assert np.all(np.diff(detected) >= int(0.25 * FS) - int(0.06 * FS) * 2)

    def test_empty_on_flat_signal(self):
        assert detect_r_peaks(np.zeros(3600), FS).size == 0

    def test_empty_on_short_signal(self):
        assert detect_r_peaks(np.ones(10), FS).size == 0

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            detect_r_peaks(np.zeros((10, 10)), FS)

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            detect_r_peaks(np.zeros(3600), 0.0)

    def test_survives_baseline_wander(self):
        t = np.arange(0, 10, 1 / FS)
        ecg = np.zeros_like(t)
        true_peaks = []
        for onset in np.arange(0.5, 9.5, 0.8):
            idx = int(onset * FS)
            ecg += 1.0 * np.exp(-0.5 * ((t - onset) / 0.012) ** 2)
            true_peaks.append(idx)
        ecg += 0.8 * np.sin(2 * np.pi * 0.3 * t)  # big wander
        detected = detect_r_peaks(ecg, FS)
        assert abs(detected.size - len(true_peaks)) <= 1


class TestDetectSystolicPeaks:
    def test_matches_ground_truth(self, dataset, victim):
        record = dataset.record(victim, 60.0, purpose="extra")
        detected = detect_systolic_peaks(record.abp, FS)
        assert abs(detected.size - record.systolic_peaks.size) <= 2
        errors = np.abs(
            detected[:, None] - record.systolic_peaks[None, :]
        ).min(axis=1)
        assert np.median(errors) <= 5

    def test_rejects_dicrotic_wave(self):
        """Only one peak per cardiac cycle despite the dicrotic bump."""
        t = np.arange(0, 10, 1 / FS)
        abp = np.full_like(t, 75.0)
        for onset in np.arange(0.3, 9.3, 0.85):
            abp += 45 * np.exp(-0.5 * ((t - onset) / 0.05) ** 2)
            abp += 12 * np.exp(-0.5 * ((t - onset - 0.25) / 0.04) ** 2)
        detected = detect_systolic_peaks(abp, FS)
        assert detected.size == pytest.approx(11, abs=1)

    def test_flat_signal(self):
        assert detect_systolic_peaks(np.full(3600, 80.0), FS).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            detect_systolic_peaks(np.zeros((5, 5)), FS)


class TestMatchPeaks:
    def test_pairs_by_physiological_lag(self):
        r = np.array([100, 400, 700])
        s = np.array([180, 480, 780])
        pairs = match_peaks(r, s, FS)
        assert pairs == [(100, 180), (400, 480), (700, 780)]

    def test_unmatched_r_at_edge(self):
        r = np.array([100, 900])
        s = np.array([180])
        assert match_peaks(r, s, FS) == [(100, 180)]

    def test_lag_limit(self):
        r = np.array([100])
        s = np.array([100 + int(0.7 * FS)])  # beyond the 0.6 s default
        assert match_peaks(r, s, FS) == []

    def test_takes_first_following_peak(self):
        r = np.array([100])
        s = np.array([150, 200])
        assert match_peaks(r, s, FS) == [(100, 150)]

    def test_empty_inputs(self):
        assert match_peaks(np.array([]), np.array([]), FS) == []

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            match_peaks(np.array([1]), np.array([2]), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        r=st.lists(st.integers(0, 5000), max_size=20, unique=True),
        s=st.lists(st.integers(0, 5000), max_size=20, unique=True),
    )
    def test_property_pairs_ordered_and_within_lag(self, r, s):
        pairs = match_peaks(np.array(r, dtype=int), np.array(s, dtype=int), FS)
        max_lag = int(0.6 * FS)
        for r_idx, s_idx in pairs:
            assert 0 < s_idx - r_idx <= max_lag
        # Each R peak appears at most once.
        r_used = [p[0] for p in pairs]
        assert len(r_used) == len(set(r_used))


class TestPeakIndicesInWindow:
    def test_filters_and_rebases(self):
        peaks = np.array([5, 50, 150, 250])
        assert peak_indices_in_window(peaks, 40, 200).tolist() == [10, 110]

    def test_empty(self):
        assert peak_indices_in_window(np.array([]), 0, 10).size == 0

    def test_boundaries_half_open(self):
        peaks = np.array([10, 20])
        out = peak_indices_in_window(peaks, 10, 20)
        assert out.tolist() == [0]

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            peak_indices_in_window(np.array([1]), 10, 5)


@st.composite
def refractory_cases(draw):
    """Candidates on a short span, few distinct scores (many ties), any gap."""
    span = draw(st.integers(1, 150))
    positions = st.lists(
        st.integers(0, span - 1), min_size=1, max_size=60, unique=True
    )
    candidates = np.array(sorted(draw(positions)), dtype=np.intp)
    scores = np.zeros(span)
    scores[candidates] = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0]) | st.floats(-1e3, 1e3),
            min_size=candidates.size,
            max_size=candidates.size,
        )
    )
    min_gap = draw(st.integers(1, span + 5))
    return candidates, scores, min_gap


class TestEnforceRefractory:
    """The bisect selection equals the quadratic reference exactly."""

    @staticmethod
    def assert_equals_oracle(candidates, scores, min_gap):
        got = _enforce_refractory(candidates, scores, min_gap)
        want = oracle.enforce_refractory(candidates, scores, min_gap)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=400, deadline=None)
    @given(refractory_cases())
    def test_equals_oracle(self, case):
        self.assert_equals_oracle(*case)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1000, 4000),
        min_gap=st.sampled_from([1, 2, 45, 90, 144]),
        levels=st.sampled_from([2, 5, 0]),
    )
    def test_equals_oracle_on_thousands_of_candidates(self, seed, n, min_gap, levels):
        """``levels`` distinct scores (0: continuous) over ~n candidates."""
        rng = np.random.default_rng(seed)
        span = 4 * n
        candidates = np.sort(rng.choice(span, size=n, replace=False)).astype(np.intp)
        scores = rng.integers(0, levels, span) if levels else rng.random(span)
        self.assert_equals_oracle(candidates, scores.astype(np.float64), min_gap)

    def test_single_candidate(self):
        self.assert_equals_oracle(np.array([7], dtype=np.intp), np.ones(10), 3)

    def test_peaks_exactly_min_gap_apart_are_both_kept(self):
        candidates = np.array([10, 20, 30], dtype=np.intp)
        scores = np.zeros(31)
        scores[candidates] = [1.0, 3.0, 2.0]
        got = _enforce_refractory(candidates, scores, 10)
        assert got.tolist() == [10, 20, 30]
        assert _enforce_refractory(candidates, scores, 11).tolist() == [20]

    def test_gap_wider_than_the_span_keeps_the_best_only(self):
        candidates = np.array([1, 4, 8], dtype=np.intp)
        scores = np.array([0, 1, 0, 0, 5, 0, 0, 0, 2], dtype=np.float64)
        assert _enforce_refractory(candidates, scores, 50).tolist() == [4]


@st.composite
def refine_cases(draw):
    """A short signal with few levels (ties), maybe NaN, and any clusters
    -- near either edge too -- with any half-width."""
    n = draw(st.integers(1, 80))
    values = st.sampled_from([0.0, 1.0, 2.0, np.nan]) | st.floats(-1e3, 1e3)
    signal = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    clusters = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=12))
    half = draw(st.integers(1, 30))
    return signal, np.array(sorted(set(clusters)), dtype=np.intp), half


class TestRefine:
    """The one-grid ``argmax`` equals one ``argmax`` per cluster exactly."""

    @staticmethod
    def assert_equals_oracle(signal, clusters, half):
        got = _refine(signal, clusters, half)
        want = oracle.refine_peaks(signal, clusters, half)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=400, deadline=None)
    @given(refine_cases())
    def test_equals_oracle(self, case):
        self.assert_equals_oracle(*case)

    def test_edge_copies_never_win_over_the_slice(self):
        # The maximum sits on the first and last samples: the clipped
        # copies before and after them must not move the peak.
        signal = np.array([5.0, 1.0, 0.0, 1.0, 5.0])
        self.assert_equals_oracle(signal, np.array([0, 4], dtype=np.intp), 3)
        assert _refine(signal, np.array([0, 4], dtype=np.intp), 3).tolist() == [0, 4]

    def test_first_nan_wins(self):
        signal = np.array([1.0, np.nan, 3.0, np.nan, 2.0])
        assert _refine(signal, np.array([2], dtype=np.intp), 2).tolist() == [1]

    def test_detectors_on_a_training_record_equal_the_reference(self, dataset, victim):
        record = dataset.training_record(victim)
        r_peaks = detect_r_peaks(record.ecg, record.sample_rate)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.signals.peaks._refine", oracle.refine_peaks)
            reference = detect_r_peaks(record.ecg, record.sample_rate)
            systolic = detect_systolic_peaks(record.abp, record.sample_rate)
        assert np.array_equal(r_peaks, reference)
        assert np.array_equal(
            detect_systolic_peaks(record.abp, record.sample_rate), systolic
        )
