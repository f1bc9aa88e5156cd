"""Microbenchmarks of the pipeline's hot paths.

Unlike the table benches (one-shot experiment regenerations), these are
statistical pytest-benchmark measurements of the individual stages: signal
generation, portrait construction, feature extraction per version (both
the reference and the device implementation), SVM training, and the two
deployed classifier forms.
"""

import numpy as np
import pytest

from repro.amulet.restricted import OpCounter, RestrictedMath
from repro.core import SIFTDetector, build_portrait_batch
from repro.core.training import build_training_set
from repro.core.versions import DetectorVersion, make_extractor
from repro.ml.svm import SVC
from repro.signals import SyntheticFantasia
from repro.sift_app.device_features import device_extract_features
from repro.sift_app.payload import DeviceWindow

from conftest import run_once


@pytest.fixture(scope="module")
def data():
    dataset = SyntheticFantasia(n_subjects=4, seed=7)
    victim = dataset.subjects[0]
    others = dataset.subjects[1:]
    train = dataset.record(victim, 180.0, purpose="train")
    donors = [dataset.record(s, 60.0, purpose="train") for s in others]
    test = dataset.record(victim, 60.0, purpose="test")
    window = test.window(0, 1080)
    return {
        "dataset": dataset,
        "victim": victim,
        "train": train,
        "donors": donors,
        "test": test,
        "window": window,
        "device_window": DeviceWindow.from_signal_window(window),
    }


def test_bench_signal_generation(benchmark, data):
    dataset, victim = data["dataset"], data["victim"]
    record = run_once(
        benchmark,
        lambda: dataset.record(victim, 120.0, "extra"),
        study="micro",
        unit="signal-generation",
    )
    assert record.n_samples == int(120.0 * dataset.sample_rate)


def test_bench_portrait_construction(benchmark, data):
    batch = run_once(
        benchmark,
        lambda: build_portrait_batch([data["window"]]),
        study="micro",
        unit="portrait",
    )
    assert batch.x.shape == (1, 1080)


@pytest.mark.parametrize("version", list(DetectorVersion), ids=lambda v: v.value)
def test_bench_reference_extraction(benchmark, data, version):
    extractor = make_extractor(version)
    features = run_once(
        benchmark,
        lambda: extractor.extract_stream([data["window"]])[0],
        study="micro",
        unit=f"reference-extract-{version.value}",
    )
    assert features.shape == (version.n_features,)


@pytest.mark.parametrize("version", list(DetectorVersion), ids=lambda v: v.value)
def test_bench_device_extraction(benchmark, data, version):
    def extract():
        math = RestrictedMath(
            counter=OpCounter(), allow_libm=version.requires_libm
        )
        return device_extract_features(math, version, data["device_window"])

    features = run_once(
        benchmark, extract, study="micro", unit=f"device-extract-{version.value}"
    )
    assert features.shape == (version.n_features,)


def test_bench_training_set_construction(benchmark, data):
    extractor = make_extractor(DetectorVersion.SIMPLIFIED)
    ts = benchmark.pedantic(
        build_training_set,
        args=(extractor, data["train"], data["donors"]),
        rounds=3,
        iterations=1,
    )
    assert ts.n_samples == 120


def test_bench_svm_training(benchmark, data):
    extractor = make_extractor(DetectorVersion.SIMPLIFIED)
    ts = build_training_set(extractor, data["train"], data["donors"])
    from repro.ml.scaler import StandardScaler

    X = StandardScaler().fit_transform(ts.X)

    def train():
        return SVC(C=1.0).fit(X, ts.y)

    svc = benchmark.pedantic(train, rounds=3, iterations=1)
    assert svc.coef_ is not None


def test_bench_end_to_end_window_classification(benchmark, data):
    detector = SIFTDetector(version="simplified")
    detector.fit(data["train"], data["donors"])
    verdict = run_once(
        benchmark,
        lambda: detector.classify_window(data["window"]),
        study="micro",
        unit="end-to-end-window",
    )
    assert verdict in (True, False)


def test_bench_fixed_point_classification(benchmark, data):
    detector = SIFTDetector(version="simplified")
    detector.fit(data["train"], data["donors"])
    model = detector.deploy()
    features_q = model.quantize(detector.extractor.extract_stream([data["window"]])[0])
    result = run_once(
        benchmark,
        lambda: model.predict_bool_fixed(features_q),
        study="micro",
        unit="fixed-point-classify",
    )
    assert result in (True, False)


def test_bench_peak_detection(benchmark, data):
    from repro.signals.peaks import detect_r_peaks

    peaks = run_once(
        benchmark,
        lambda: detect_r_peaks(data["test"].ecg, 360.0),
        study="micro",
        unit="peak-detection",
    )
    assert peaks.size > 50


def test_bench_occupancy_histogram(benchmark, data):
    math = RestrictedMath(counter=OpCounter())
    x = np.random.default_rng(0).random(1080)
    y = np.random.default_rng(1).random(1080)
    matrix = run_once(
        benchmark,
        lambda: math.histogram2d(x, y, 50),
        study="micro",
        unit="occupancy-histogram",
    )
    assert matrix.sum() == 1080
