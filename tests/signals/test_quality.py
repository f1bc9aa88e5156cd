"""Tests for the signal-quality index."""

import math
import pickle
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.native.sqi import load_kernel
from repro.signals import quality
from repro.signals.dataset import SignalWindow, SyntheticFantasia
from repro.signals.quality import QualityReport, SignalQualityIndex, assess_window
from tests.signals import oracle


def _window(ecg, abp, r=None, s=None, fs=360.0):
    ecg = np.asarray(ecg, dtype=np.float64)
    n = ecg.size
    if r is None:
        r = np.arange(100, n - 50, 280)
    if s is None:
        s = np.arange(170, n - 20, 280)
    return SignalWindow(
        ecg=ecg,
        abp=np.asarray(abp, dtype=np.float64),
        r_peaks=np.asarray(r, dtype=np.intp),
        systolic_peaks=np.asarray(s, dtype=np.intp),
        sample_rate=fs,
    )


class TestCleanWindows:
    def test_synthetic_windows_are_usable(self, labeled_stream):
        sqi = SignalQualityIndex()
        usable = sum(sqi.assess(w).usable for w in labeled_stream.windows)
        assert usable >= 0.8 * len(labeled_stream.windows)

    def test_report_fields_bounded(self, labeled_stream):
        report = assess_window(labeled_stream.windows[0])
        for value in (
            report.sqi,
            report.clipping_score,
            report.burst_score,
            report.beat_score,
        ):
            assert 0.0 <= value <= 1.0

    def test_sqi_is_minimum_of_components(self, labeled_stream):
        report = assess_window(labeled_stream.windows[0])
        assert report.sqi == pytest.approx(
            min(report.clipping_score, report.burst_score, report.beat_score)
        )


class TestDegradedWindows:
    def test_flatline_rejected(self):
        window = _window(np.zeros(1080), np.full(1080, 80.0))
        report = assess_window(window)
        assert not report.usable
        assert report.clipping_score == 0.0

    def test_clipped_signal_penalized(self, labeled_stream):
        base = labeled_stream.windows[0]
        clipped = _window(
            np.clip(base.ecg, np.percentile(base.ecg, 25), np.percentile(base.ecg, 75)),
            base.abp,
            r=base.r_peaks,
            s=base.systolic_peaks,
        )
        assert (
            assess_window(clipped).clipping_score
            < assess_window(base).clipping_score
        )

    def test_burst_artifact_penalized(self, labeled_stream):
        base = labeled_stream.windows[0]
        corrupted = base.ecg.copy()
        corrupted[400:460] += 50.0 * np.random.default_rng(0).standard_normal(60)
        report_bad = assess_window(
            _window(corrupted, base.abp, r=base.r_peaks, s=base.systolic_peaks)
        )
        report_good = assess_window(base)
        assert report_bad.burst_score < report_good.burst_score

    def test_implausible_beat_count_rejected(self, labeled_stream):
        base = labeled_stream.windows[0]
        no_beats = _window(base.ecg, base.abp, r=[], s=[])
        report = assess_window(no_beats)
        assert report.beat_score == 0.0
        assert not report.usable

    def test_too_many_beats_penalized(self, labeled_stream):
        base = labeled_stream.windows[0]
        every_sample = _window(
            base.ecg, base.abp, r=np.arange(0, 1080, 30), s=base.systolic_peaks
        )
        assert assess_window(every_sample).beat_score < 1.0


class TestConfiguration:
    def test_threshold_changes_verdict(self, labeled_stream):
        window = labeled_stream.windows[0]
        lenient = SignalQualityIndex(threshold=0.05).assess(window)
        strict = SignalQualityIndex(threshold=1.0).assess(window)
        assert lenient.usable or not strict.usable

    def test_validation(self):
        with pytest.raises(ValueError):
            SignalQualityIndex(threshold=0.0)
        with pytest.raises(ValueError):
            SignalQualityIndex(clipping_tolerance=-0.1)
        with pytest.raises(ValueError):
            SignalQualityIndex(burst_ratio_limit=0.5)
        with pytest.raises(ValueError):
            QualityReport(
                sqi=1.5, usable=True, clipping_score=1.0,
                burst_score=1.0, beat_score=1.0,
            )

    def test_boundary_tolerance_is_symmetric(self):
        """Float noise within the epsilon of *either* bound is accepted
        and clamped; the old check took ``1.0 + 1e-9`` but crashed on
        ``-1e-12``."""
        above = QualityReport(
            sqi=1.0 + 1e-10, usable=True, clipping_score=1.0,
            burst_score=1.0, beat_score=1.0,
        )
        assert above.sqi == 1.0
        below = QualityReport(
            sqi=-1e-12, usable=False, clipping_score=-1e-12,
            burst_score=0.0, beat_score=0.0,
        )
        assert below.sqi == 0.0
        assert below.clipping_score == 0.0

    def test_genuinely_out_of_range_still_raises(self):
        for bad in (1.0 + 1e-6, -1e-6, float("nan")):
            with pytest.raises(ValueError):
                QualityReport(
                    sqi=bad, usable=False, clipping_score=0.5,
                    burst_score=0.5, beat_score=0.5,
                )


class TestComponentEdgeCases:
    """Degenerate inputs every component score must survive."""

    def test_constant_signal_scores_zero_everywhere(self):
        window = _window(np.full(1080, 3.3), np.full(1080, 3.3))
        report = assess_window(window)
        assert report.clipping_score == 0.0  # span collapses: flatline
        assert report.burst_score == 0.0  # zero first-difference energy
        assert report.sqi == 0.0
        assert not report.usable

    def test_all_clipped_square_wave_rejected(self):
        # Every sample sits at one of the two extremes: 100 % pinned.
        square = np.where(np.arange(1080) % 360 < 180, -1.0, 1.0)
        report = assess_window(_window(square, np.abs(square) * 80.0))
        assert report.clipping_score == 0.0
        assert not report.usable

    def test_empty_peak_lists_score_zero_beats(self):
        t = np.arange(1080) / 360.0
        ecg = np.sin(2 * np.pi * 1.2 * t)
        report = assess_window(_window(ecg, 80.0 + 20.0 * ecg, r=[], s=[]))
        assert report.beat_score == 0.0
        assert report.sqi == 0.0
        assert not report.usable

    def test_one_empty_channel_is_enough_to_reject(self):
        t = np.arange(1080) / 360.0
        ecg = np.sin(2 * np.pi * 1.2 * t)
        # ECG peaks are plausible; only the ABP peak list is empty.
        report = assess_window(_window(ecg, 80.0 + 20.0 * ecg, s=[]))
        assert report.beat_score == 0.0

    def test_sqi_exactly_at_threshold_is_usable(self, labeled_stream):
        """The gate contract is ``usable = sqi >= threshold``, inclusive."""
        window = labeled_stream.windows[0]
        sqi = assess_window(window).sqi
        assert 0.0 < sqi <= 1.0
        at_boundary = SignalQualityIndex(threshold=sqi).assess(window)
        assert at_boundary.sqi == sqi
        assert at_boundary.usable
        if sqi < 1.0:
            nudged = SignalQualityIndex(
                threshold=min(1.0, float(np.nextafter(sqi, 2.0)))
            ).assess(window)
            assert not nudged.usable


class TestGatingReducesFalsePositives:
    def test_gate_filters_artifact_windows(self, trained_detectors, dataset, victim):
        """On an artifact-heavy genuine recording, gating trades coverage
        for a lower false-positive count among the windows it passes."""
        from dataclasses import replace as dc_replace

        from repro.core.versions import DetectorVersion

        noisy_subject = dc_replace(
            victim, ecg_artifact_rate=15.0, abp_artifact_rate=8.0
        )
        record = dataset.record(noisy_subject, 120.0, purpose="extra")
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        sqi = SignalQualityIndex(threshold=0.5)
        windows = [
            record.window(i * 1080, 1080)
            for i in range(record.n_samples // 1080)
        ]
        all_fp = sum(detector.classify_window(w) for w in windows)
        passed = [w for w in windows if sqi.assess(w).usable]
        gated_fp = sum(detector.classify_window(w) for w in passed)
        assert len(passed) <= len(windows)
        # The gate never *creates* false positives.
        assert gated_fp <= all_fp


# Values that stress the selection arithmetic: ties, overflow of the
# squared differences (in float32), infinities and NaN.
_SPECIAL = (0.0, 1.0, -1.0, 2.5, 1e30, -1e30, np.inf, -np.inf, np.nan)

#: Signal shapes drawn from a seed, for windows of any length.
_SEEDED = ("noise", "quantized", "burst", "one_nan", "inf_pair", "huge", "flat")


def _seeded_channel(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "quantized":  # few levels: ties among samples and energies
        return rng.integers(-4, 5, n) * rng.choice([1e-3, 0.25, 1.0])
    if kind == "flat":
        return np.full(n, rng.choice(_SPECIAL))
    if kind == "burst":  # a clean rhythm with a motion burst on top
        x = np.sin(2 * np.pi * np.arange(n) / 90.0)
        start = rng.integers(n)
        end = min(n, start + max(1, n // 10))
        x[start:end] += 50.0 * rng.standard_normal(end - start)
        return x
    x = rng.standard_normal(n)
    if kind == "one_nan":
        x[rng.integers(n)] = np.nan
    elif kind == "inf_pair":
        plus, minus = rng.choice(n, size=2, replace=False)
        x[plus], x[minus] = np.inf, -np.inf
    elif kind == "huge":  # float32 energy overflows to inf
        spots = rng.choice(n, size=min(n, 3), replace=False)
        x[spots] = rng.choice([1e30, -1e30], size=spots.size)
    return x


@st.composite
def _channel(draw, dtype, n):
    kinds = ["mixed", "finite", *_SEEDED] if n <= 64 else list(_SEEDED)
    kind = draw(st.sampled_from(kinds))
    if kind in _SEEDED:
        seed = draw(st.integers(0, 2**32 - 1))
        return _seeded_channel(kind, n, seed).astype(dtype)
    width = 32 if dtype == np.float32 else 64
    finite = st.floats(
        -1e6, 1e6, allow_nan=False, allow_infinity=False, width=width
    )
    elements = finite if kind == "finite" else st.sampled_from(_SPECIAL) | finite
    return draw(hnp.arrays(dtype, n, elements=elements))


@st.composite
def _windows(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(
        st.integers(2, 64) | st.integers(2, 2000) | st.sampled_from([2, 3, 1080])
    )
    peaks = np.arange(0, n, max(1, n // draw(st.integers(1, 8))), dtype=np.intp)
    return SignalWindow(
        ecg=draw(_channel(dtype, n)),
        abp=draw(_channel(dtype, n)),
        r_peaks=peaks,
        systolic_peaks=peaks,
        sample_rate=draw(st.sampled_from([1.0, 30.0, 360.0])),
    )


_GATE_PARAMS = st.fixed_dictionaries(
    {
        "threshold": st.sampled_from([0.6, 1.0]),
        "clipping_tolerance": st.sampled_from([0.0, 0.02, 0.5]),
        "burst_ratio_limit": st.sampled_from([1.5, 400.0]),
    }
)

def _gate(path: str, **params) -> SignalQualityIndex:
    """A gate as this host builds it (on the compiled kernel when it is
    built), or, for ``"numpy"``, one built as a host without a compiler
    builds it (its loader finds no kernel)."""
    if path == "numpy":
        with mock.patch.object(quality, "load_kernel", lambda: None):
            gate = SignalQualityIndex(**params)
        assert gate._kernel is None
        return gate
    gate = SignalQualityIndex(**params)
    assert gate._kernel is load_kernel()
    return gate


def _is_negative_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) < 0


def _inf_pair_window() -> SignalWindow:
    """A clean synthetic window with one +inf and one -inf ECG sample,
    not adjacent: the min/max span is infinite, so no usable range."""
    data = SyntheticFantasia(n_subjects=1, seed=2017)
    window = data.record(data.subjects[0], 3.0, purpose="test").window(0, 1080)
    ecg = window.ecg.copy()
    ecg[100], ecg[700] = np.inf, -np.inf
    return replace(window, ecg=ecg)


class TestMatchesOracle:
    """``assess`` gets a window's statistics from the kernel or from one
    NumPy partition; the plain per-channel ``np.median``/``np.percentile``
    formulas are the reference, compared exactly. This class runs the
    gate as the host builds it (the kernel when it is built);
    ``TestMatchesOracleOnNumpy`` runs the same tests on the NumPy path."""

    path = "default"

    @settings(max_examples=400, deadline=None)
    @given(window=_windows(), params=_GATE_PARAMS)
    @example(window=_inf_pair_window(), params={})
    def test_assess_equals_per_channel_oracle(self, window, params):
        self._check_against_oracle(window, params)

    def _check_against_oracle(self, window, params):
        gate = _gate(self.path, **params)
        if gate._kernel is not None:  # the window does take the kernel
            assert gate._kernel.stats(window.ecg, window.abp) is not None
        clamped = []
        clamp = quality._clamp01

        def spy(x):
            clamped.append(x)
            return clamp(x)

        with np.errstate(all="ignore"), mock.patch.object(quality, "_clamp01", spy):
            report = gate.assess(window)
            assert report == oracle.assess(gate, window)
        # The clamps are plain min/max: they only ever see numbers for
        # which that is np.clip bit for bit.
        assert not any(math.isnan(x) or _is_negative_zero(x) for x in clamped)
        # A non-finite sample anywhere leaves no usable window.
        if not (np.isfinite(window.ecg).all() and np.isfinite(window.abp).all()):
            assert not report.usable

    def test_pinned_thresholds_round_into_the_sample_dtype(self):
        """float32 samples are compared with the extreme thresholds
        rounded to float32, as the scalar comparison does: here the
        rounded lower threshold (0.07 up to the next float32) pins one
        more sample than the float64 threshold would."""
        near_low = np.float32(0.07)
        assert float(near_low) > 0.01 * 7.0
        ecg = np.full(100, 3.5, dtype=np.float32)
        ecg[:3] = (0.0, 7.0, near_low)
        window = SignalWindow(
            ecg=ecg,
            abp=ecg.copy(),
            r_peaks=np.arange(0, 100, 10),
            systolic_peaks=np.arange(0, 100, 10),
            sample_rate=30.0,
        )
        gate = _gate(self.path)
        report = gate.assess(window)
        assert report == oracle.assess(gate, window)
        assert report.clipping_score == pytest.approx(0.96)

    def test_synthetic_windows_equal_oracle(self, labeled_stream):
        gate = _gate(self.path)
        for window in labeled_stream.windows:
            as_float32 = replace(
                window,
                ecg=window.ecg.astype(np.float32),
                abp=window.abp.astype(np.float32),
            )
            for w in (window, as_float32):
                assert gate.assess(w) == oracle.assess(gate, w)

    def test_mixed_channel_dtypes_score_each_channel_alone(self, labeled_stream):
        window = labeled_stream.windows[0]
        mixed = replace(window, ecg=window.ecg.astype(np.float32))
        gate = _gate(self.path)
        if gate._kernel is not None:  # the kernel takes one dtype only
            assert gate._kernel.stats(mixed.ecg, mixed.abp) is None
        assert gate.assess(mixed) == oracle.assess(gate, mixed)

    def test_non_contiguous_channels_take_the_numpy_path(self, labeled_stream):
        window = labeled_stream.windows[0]
        strided = replace(
            window,
            ecg=np.repeat(window.ecg, 2)[::2],
            abp=np.repeat(window.abp, 2)[::2],
        )
        assert not strided.ecg.flags.c_contiguous
        gate = _gate(self.path)
        if gate._kernel is not None:
            assert gate._kernel.stats(strided.ecg, strided.abp) is None
        assert gate.assess(strided) == oracle.assess(gate, strided)
        assert gate.assess(strided) == gate.assess(window)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_window_under_two_samples_scores_zero(self, n_samples):
        window = SignalWindow(
            ecg=np.ones(n_samples, dtype=np.float32),
            abp=np.ones(n_samples, dtype=np.float32),
            r_peaks=np.empty(0, dtype=np.intp),
            systolic_peaks=np.empty(0, dtype=np.intp),
            sample_rate=360.0,
        )
        gate = _gate(self.path)
        report = gate.assess(window)
        assert report == oracle.assess(gate, window)
        assert report.sqi == 0.0
        assert not report.usable


class TestMatchesOracleOnNumpy(TestMatchesOracle):
    """The oracle parity tests on the NumPy fallback, forced by a loader
    that finds no kernel."""

    path = "numpy"

    # Hypothesis runs one property test for one class only.
    @settings(max_examples=400, deadline=None)
    @given(window=_windows(), params=_GATE_PARAMS)
    @example(window=_inf_pair_window(), params={})
    def test_assess_equals_per_channel_oracle(self, window, params):
        self._check_against_oracle(window, params)


class TestClamp:
    @pytest.mark.parametrize(
        "x", [-np.inf, -2.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0, 1.5, np.inf, np.nan]
    )
    def test_clamp_is_np_clip_bit_for_bit(self, x):
        expected = float(np.clip(x, 0.0, 1.0))
        assert np.float64(quality._clamp01(x)).tobytes() == np.float64(expected).tobytes()

    def test_one_minus_never_gives_negative_zero(self):
        for x in (0.0, 1.0, 0.25, 1.0 - 2**-53, 2**-1074, 1e300):
            assert not _is_negative_zero(1.0 - x)


class TestKernelLoading:
    def test_gate_loads_the_kernel_when_built(self):
        """The one-time build runs in ``__init__``, never in ``assess``."""
        with mock.patch.object(quality, "load_kernel", return_value=None) as loader:
            gate = SignalQualityIndex()
            assert loader.call_count == 1
            gate.assess(_inf_pair_window())
            assert loader.call_count == 1

    def test_gate_pickles_and_reloads_the_kernel(self):
        gate = SignalQualityIndex(threshold=0.5)
        clone = pickle.loads(pickle.dumps(gate))
        assert clone.threshold == 0.5
        assert clone._kernel is load_kernel()


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_abstains_instead_of_raising(
        self, labeled_stream, bad
    ):
        window = labeled_stream.windows[0]
        abp = window.abp.copy()
        abp[500] = bad
        report = assess_window(replace(window, abp=abp))
        assert report.sqi == 0.0
        assert not report.usable
