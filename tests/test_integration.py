"""End-to-end integration tests across all subsystems."""

import numpy as np
import pytest

from repro.attacks import AttackScenario, ReplacementAttack, ReplayAttack
from repro.core import SIFTDetector
from repro.core.versions import DetectorVersion
from repro.sift_app import AmuletSIFTRunner


class TestEndToEnd:
    def test_device_and_reference_agree_on_most_windows(
        self, trained_detectors, labeled_stream
    ):
        """The paper's central deployment claim: the constrained
        implementation performs comparably to the gold standard."""
        for version, detector in trained_detectors.items():
            reference = detector.evaluate(labeled_stream)
            device = AmuletSIFTRunner(detector).run_stream(labeled_stream).report
            assert abs(device.accuracy - reference.accuracy) <= 0.15, version

    def test_detector_generalizes_to_fresh_attack_stream(
        self, trained_detectors, dataset, victim
    ):
        """Different unseen data, different donors, different seed."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        others = [s for s in dataset.subjects if s is not victim]
        record = dataset.record(victim, 60.0, purpose="extra")
        donors = [dataset.record(others[-1], 60.0, purpose="extra")]
        stream = AttackScenario(ReplacementAttack(donors)).build(
            record, np.random.default_rng(777)
        )
        assert detector.evaluate(stream).accuracy > 0.7

    def test_sift_checks_consistency_not_identity(
        self, dataset, trained_detectors
    ):
        """SIFT flags ECG that is inconsistent with the tandem ABP -- not
        ECG that merely belongs to someone else.  A stranger's *own*
        synchronized windows are internally consistent, so the victim's
        model mostly passes them; it is the cross-pairing of the victim's
        ABP with foreign ECG that gets flagged (previous test)."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        stranger = dataset.subjects[3]
        record = dataset.record(stranger, 60.0, purpose="extra")
        windows = [
            record.window(i * 1080, 1080) for i in range(record.n_samples // 1080)
        ]
        flagged = sum(detector.classify_window(w) for w in windows)
        assert flagged / len(windows) < 0.5

    def test_replay_attack_detectable_above_chance(
        self, trained_detectors, dataset, victim
    ):
        detector = trained_detectors[DetectorVersion.ORIGINAL]
        record = dataset.record(victim, 60.0, purpose="extra")
        captured = dataset.record(victim, 60.0, purpose="train")
        stream = AttackScenario(ReplayAttack(captured)).build(
            record, np.random.default_rng(5)
        )
        report = detector.evaluate(stream)
        assert report.accuracy > 0.6

    def test_retraining_is_deterministic(self, train_record, train_donors, labeled_stream):
        a = SIFTDetector(version="reduced").fit(train_record, train_donors)
        b = SIFTDetector(version="reduced").fit(train_record, train_donors)
        va = [a.decision_value(w) for w in labeled_stream.windows[:5]]
        vb = [b.decision_value(w) for w in labeled_stream.windows[:5]]
        assert va == pytest.approx(vb)

    def test_generated_c_code_is_faithful(self, trained_detectors, labeled_stream):
        """Execute the generated C decision function (translated back to
        Python semantics) and compare with the model object."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        model = detector.deploy(frac_bits=14)
        source = model.to_c_source()

        # Parse the weight table back out of the C source.
        import re

        weights = [
            int(x)
            for x in re.search(r"\{ (.*) \}", source).group(1).split(", ")
        ]
        bias = int(re.search(r"sift_bias = (-?\d+);", source).group(1))
        assert weights == model.weights_q.tolist()
        assert bias == model.bias_q

        for window in labeled_stream.windows[:10]:
            features_q = model.quantize(detector.extractor.extract_stream([window])[0])
            acc = bias
            for w, f in zip(weights, features_q.tolist()):
                acc += (w * f) >> 14
            assert (acc >= 0) == model.predict_bool_fixed(features_q)
