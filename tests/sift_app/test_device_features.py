"""Tests for device-side feature extraction: parity with the reference."""

import numpy as np
import pytest

from repro.amulet.restricted import (
    OpCounter,
    RestrictedEnvironmentError,
    RestrictedMath,
)
from repro.core.versions import DetectorVersion, make_extractor
from repro.sift_app.device_features import (
    device_extract_features,
    device_extract_original,
    device_extract_reduced,
    device_extract_simplified,
)
from repro.sift_app.payload import DeviceWindow
from tests.core import oracle


def _math(libm=False):
    return RestrictedMath(counter=OpCounter(), allow_libm=libm)


@pytest.fixture(scope="module")
def device_windows(labeled_stream):
    return [
        DeviceWindow.from_signal_window(w) for w in labeled_stream.windows[:8]
    ]


class TestReferenceParity:
    """The device pipeline must track the float64 reference closely --
    the Amulet-vs-MATLAB agreement in the paper's Table II."""

    @pytest.mark.parametrize(
        "version,device_fn,libm",
        [
            (DetectorVersion.ORIGINAL, device_extract_original, True),
            (DetectorVersion.SIMPLIFIED, device_extract_simplified, False),
            (DetectorVersion.REDUCED, device_extract_reduced, False),
        ],
        ids=["original", "simplified", "reduced"],
    )
    def test_features_match_reference(
        self, version, device_fn, libm, labeled_stream, device_windows
    ):
        extractor = make_extractor(version)
        for signal_window, device_window in zip(
            labeled_stream.windows, device_windows
        ):
            reference = oracle.features(extractor, signal_window)
            device = device_fn(_math(libm), device_window)
            assert device.shape == reference.shape
            # float32 arithmetic and the uint8 matrix introduce only
            # small deviations on healthy windows.
            np.testing.assert_allclose(device, reference, rtol=2e-2, atol=2e-2)

    def test_original_device_is_nearly_exact(
        self, labeled_stream, device_windows
    ):
        """The libm build computes in double: deviations are at the level
        of the float32 *input* cast only."""
        extractor = make_extractor(DetectorVersion.ORIGINAL)
        reference = oracle.features(extractor, labeled_stream.windows[0])
        device = device_extract_original(_math(True), device_windows[0])
        np.testing.assert_allclose(device, reference, rtol=1e-4, atol=1e-4)


class TestLibmGate:
    def test_original_requires_libm(self, device_windows):
        with pytest.raises(RestrictedEnvironmentError):
            device_extract_original(_math(False), device_windows[0])

    def test_simplified_runs_without_libm(self, device_windows):
        features = device_extract_simplified(_math(False), device_windows[0])
        assert np.isfinite(features).all()

    def test_reduced_runs_without_libm(self, device_windows):
        features = device_extract_reduced(_math(False), device_windows[0])
        assert np.isfinite(features).all()

    def test_no_libm_ops_billed_by_simplified(self, device_windows):
        math = _math(False)
        device_extract_simplified(math, device_windows[0])
        assert not any("libm" in op for op in math.counter.counts)


class TestOperationCosts:
    def test_reduced_is_much_cheaper(self, device_windows):
        from repro.amulet.restricted import CycleCostModel

        model = CycleCostModel()
        costs = {}
        for name, fn, libm in (
            ("simplified", device_extract_simplified, False),
            ("reduced", device_extract_reduced, False),
        ):
            math = _math(libm)
            fn(math, device_windows[0])
            costs[name] = model.cycles_for(math.counter)
        assert costs["reduced"] < costs["simplified"] / 10

    def test_original_costs_more_than_simplified(self, device_windows):
        from repro.amulet.restricted import CycleCostModel

        model = CycleCostModel()
        math_o = _math(True)
        device_extract_original(math_o, device_windows[0])
        math_s = _math(False)
        device_extract_simplified(math_s, device_windows[0])
        assert model.cycles_for(math_o.counter) > model.cycles_for(
            math_s.counter
        )

    def test_dispatcher_matches_direct_call(self, device_windows):
        direct = device_extract_simplified(_math(False), device_windows[0])
        routed = device_extract_features(
            _math(False), DetectorVersion.SIMPLIFIED, device_windows[0]
        )
        assert np.array_equal(direct, routed)


class TestDegenerateWindows:
    def _window(self, ecg, abp, r=(), s=()):
        return DeviceWindow(
            ecg=np.asarray(ecg, dtype=np.float32),
            abp=np.asarray(abp, dtype=np.float32),
            r_peaks=np.asarray(r, dtype=np.intp),
            systolic_peaks=np.asarray(s, dtype=np.intp),
            sample_rate=360.0,
        )

    def test_no_peaks(self):
        window = self._window(np.sin(np.arange(1080) / 10), np.cos(np.arange(1080) / 10))
        for fn, libm in (
            (device_extract_original, True),
            (device_extract_simplified, False),
            (device_extract_reduced, False),
        ):
            features = fn(_math(libm), window)
            assert np.isfinite(features).all()

    def test_flat_signals(self):
        window = self._window(np.zeros(1080), np.full(1080, 80.0), r=[100], s=[200])
        features = device_extract_simplified(_math(False), window)
        assert np.isfinite(features).all()

    def test_unpaired_peaks(self):
        # Systolic peak BEFORE the R peak: no pair forms.
        window = self._window(
            np.sin(np.arange(1080) / 10), np.cos(np.arange(1080) / 10),
            r=[800], s=[100],
        )
        features = device_extract_reduced(_math(False), window)
        assert features[4] == 0.0  # paired distance defaults to 0


class TestDeviceWindow:
    def test_from_signal_window_casts(self, labeled_stream):
        device = DeviceWindow.from_signal_window(labeled_stream.windows[0])
        assert device.ecg.dtype == np.float32
        assert device.n_samples == labeled_stream.windows[0].n_samples

    def test_rejects_out_of_range_peaks(self):
        with pytest.raises(ValueError, match="out-of-window"):
            DeviceWindow(
                ecg=np.zeros(100, dtype=np.float32),
                abp=np.zeros(100, dtype=np.float32),
                r_peaks=np.array([150]),
                systolic_peaks=np.array([], dtype=np.intp),
                sample_rate=360.0,
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DeviceWindow(
                ecg=np.zeros(100, dtype=np.float32),
                abp=np.zeros(99, dtype=np.float32),
                r_peaks=np.array([], dtype=np.intp),
                systolic_peaks=np.array([], dtype=np.intp),
                sample_rate=360.0,
            )
