"""Tests for the SIFT QM app and the deployment harness."""

import numpy as np
import pytest

from repro.amulet.amulet_os import AmuletOS
from repro.amulet.firmware import FirmwareToolchain
from repro.core.versions import DetectorVersion
from repro.sift_app.app import SIFTDetectorApp
from repro.sift_app.harness import AmuletSIFTRunner, deploy_model
from repro.sift_app.models import (
    FixedPointDeployedModel,
    FloatLinearModel,
)
from repro.sift_app.payload import DeviceWindow


@pytest.fixture(scope="module")
def simplified_app(trained_detectors):
    detector = trained_detectors[DetectorVersion.SIMPLIFIED]
    return SIFTDetectorApp(
        DetectorVersion.SIMPLIFIED, deploy_model(detector)
    )


class TestDeployModel:
    def test_original_deploys_float(self, trained_detectors):
        model = deploy_model(trained_detectors[DetectorVersion.ORIGINAL])
        assert isinstance(model, FloatLinearModel)

    def test_others_deploy_fixed_point(self, trained_detectors):
        for version in (DetectorVersion.SIMPLIFIED, DetectorVersion.REDUCED):
            model = deploy_model(trained_detectors[version])
            assert isinstance(model, FixedPointDeployedModel)

    def test_float_model_matches_reference_decision(
        self, trained_detectors, labeled_stream
    ):
        from repro.amulet.restricted import RestrictedMath

        detector = trained_detectors[DetectorVersion.ORIGINAL]
        model = deploy_model(detector)
        math = RestrictedMath(allow_libm=True)
        for window in labeled_stream.windows[:5]:
            features = detector.extractor.extract_stream([window])[0]
            _, score = model.classify(math, features)
            assert score == pytest.approx(
                detector.decision_value(window), abs=1e-6
            )


class TestSIFTDetectorApp:
    def test_state_machine_shape(self, simplified_app):
        names = set(simplified_app.machine.states)
        assert names == {"PeaksDataCheck", "FeatureExtraction", "MLClassifier"}
        assert simplified_app.machine.initial == "PeaksDataCheck"

    def test_version_model_mismatch_rejected(self, trained_detectors):
        reduced_model = deploy_model(trained_detectors[DetectorVersion.REDUCED])
        with pytest.raises(ValueError, match="features"):
            SIFTDetectorApp(DetectorVersion.SIMPLIFIED, reduced_model)

    def test_full_cycle_on_one_window(self, trained_detectors, labeled_stream):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        app = SIFTDetectorApp(DetectorVersion.SIMPLIFIED, deploy_model(detector))
        os = AmuletOS(FirmwareToolchain().build([app]))
        window = DeviceWindow.from_signal_window(labeled_stream.windows[0])
        os.deliver_sensor_window(app.name, window)
        os.run_until_idle()
        assert app.windows_processed == 1
        assert len(app.predictions) == 1
        # Back in the initial state, ready for the next snippet.
        assert app.machine.current.name == "PeaksDataCheck"

    def test_alert_on_positive_window(self, trained_detectors, labeled_stream):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        app = SIFTDetectorApp(DetectorVersion.SIMPLIFIED, deploy_model(detector))
        os = AmuletOS(FirmwareToolchain().build([app]))
        altered = [w for w in labeled_stream.windows if w.altered]
        for window in altered:
            os.deliver_sensor_window(
                app.name, DeviceWindow.from_signal_window(window)
            )
        os.run_until_idle()
        if any(app.predictions):
            assert os.display.contains("ECG ALTERED")
            assert os.ledger.peripheral_events.get("haptic", 0) >= 1

    def test_rejects_corrupt_peak_metadata(self, trained_detectors):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        app = SIFTDetectorApp(DetectorVersion.SIMPLIFIED, deploy_model(detector))
        os = AmuletOS(FirmwareToolchain().build([app]))
        bad = DeviceWindow(
            ecg=np.zeros(1080, dtype=np.float32),
            abp=np.zeros(1080, dtype=np.float32),
            r_peaks=np.array([500, 300]),  # not increasing
            systolic_peaks=np.array([], dtype=np.intp),
            sample_rate=360.0,
        )
        os.deliver_sensor_window(app.name, bad)
        os.run_until_idle()
        assert app.windows_processed == 0
        assert app.rejected_windows == 1
        assert app.machine.current.name == "PeaksDataCheck"

    def test_code_inventory_per_version(self, trained_detectors):
        apps = {
            version: SIFTDetectorApp(version, deploy_model(detector))
            for version, detector in trained_detectors.items()
        }
        original = apps[DetectorVersion.ORIGINAL].code_inventory()
        simplified = apps[DetectorVersion.SIMPLIFIED].code_inventory()
        reduced = apps[DetectorVersion.REDUCED].code_inventory()
        assert "peak_angles_atan" in original
        assert "peak_angles_atan" not in simplified
        assert "histogram" not in reduced
        # PeaksDataCheck is identical across versions (paper Sec. III).
        assert (
            original["peaks_data_check"]
            == simplified["peaks_data_check"]
            == reduced["peaks_data_check"]
        )

    def test_only_matrix_builds_declare_the_grid(self, trained_detectors):
        for version, detector in trained_detectors.items():
            app = SIFTDetectorApp(version, deploy_model(detector))
            arrays = {a.name for a in app.array_declarations()}
            assert ("occupancy_matrix" in arrays) == version.uses_matrix_features
            for declaration in app.array_declarations():
                assert declaration.dimensions == 1  # platform limit


class TestAmuletSIFTRunner:
    @pytest.mark.parametrize("version", list(DetectorVersion))
    def test_device_agrees_with_reference(
        self, version, trained_detectors, labeled_stream
    ):
        detector = trained_detectors[version]
        runner = AmuletSIFTRunner(detector)
        result = runner.run_stream(labeled_stream)
        reference = np.array(
            [detector.classify_window(w) for w in labeled_stream.windows]
        )
        agreement = np.mean(result.predictions == reference)
        assert agreement >= 0.9  # quantization may flip boundary windows

    def test_result_shape(self, trained_detectors, labeled_stream):
        runner = AmuletSIFTRunner(trained_detectors[DetectorVersion.REDUCED])
        result = runner.run_stream(labeled_stream)
        assert result.n_windows == len(labeled_stream)
        assert result.predictions.shape == (len(labeled_stream),)
        assert result.labels.shape == (len(labeled_stream),)
        assert 0.0 <= result.report.accuracy <= 1.0

    def test_consecutive_streams_accumulate(
        self, trained_detectors, labeled_stream
    ):
        runner = AmuletSIFTRunner(trained_detectors[DetectorVersion.REDUCED])
        runner.run_stream(labeled_stream)
        result2 = runner.run_stream(labeled_stream)
        assert result2.n_windows == len(labeled_stream)
        assert runner.app.windows_processed == 2 * len(labeled_stream)

    def test_soak_thousand_windows(self, trained_detectors, labeled_stream):
        """Long-deployment soak: 1000 windows through one OS instance.

        Verifies the event loop, ledger and state machine stay consistent
        over a day-scale workload (1000 windows = 50 re-runs of the
        fixture stream) and that per-window cost stays constant -- no
        hidden superlinear behaviour."""
        runner = AmuletSIFTRunner(trained_detectors[DetectorVersion.REDUCED])
        first = runner.run_stream(labeled_stream)
        cycles_first = runner.os.ledger.cycles_by_app[runner.app.name]
        for _ in range(49):
            runner.run_stream(labeled_stream)
        total = runner.os.ledger.cycles_by_app[runner.app.name]
        n = 50 * len(labeled_stream)
        assert runner.app.windows_processed == n
        assert runner.os.ledger.dispatches == n
        assert runner.os.pending_events == 0
        # Per-window cost is stable (identical streams, identical work).
        assert total == pytest.approx(50 * cycles_first, rel=1e-6)
        assert runner.app.machine.current.name == "PeaksDataCheck"
        # Verdicts for identical inputs are identical across the soak.
        assert runner.app.predictions[: len(labeled_stream)] == (
            runner.app.predictions[-len(labeled_stream):]
        )
