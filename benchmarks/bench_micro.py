"""Microbenchmarks of the pipeline's hot paths.

Unlike the table benches (one-shot experiment regenerations), these are
statistical pytest-benchmark measurements of the individual stages: signal
generation, portrait construction, feature extraction per version (both
the reference and the device implementation), SVM training, the two
deployed classifier forms, peak detection and the SQI gate.
"""

import timeit
from unittest import mock

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
    record = benchmark.pedantic(
        lambda: dataset.record(victim, 120.0, "extra"), rounds=1, iterations=1
    )
    assert record.n_samples == int(120.0 * dataset.sample_rate)


def test_bench_portrait_construction(benchmark, data):
    batch = benchmark.pedantic(
        lambda: build_portrait_batch([data["window"]]), rounds=1, iterations=1
    )
    assert batch.x.shape == (1, 1080)


@pytest.mark.parametrize("version", list(DetectorVersion), ids=lambda v: v.value)
def test_bench_reference_extraction(benchmark, data, version):
    extractor = make_extractor(version)
    features = benchmark.pedantic(
        lambda: extractor.extract_stream([data["window"]])[0], rounds=1, iterations=1
    )
    assert features.shape == (version.n_features,)


@pytest.mark.parametrize("version", list(DetectorVersion), ids=lambda v: v.value)
def test_bench_device_extraction(benchmark, data, version):
    def extract():
        math = RestrictedMath(
            counter=OpCounter(), allow_libm=version.requires_libm
        )
        return device_extract_features(math, version, data["device_window"])

    features = benchmark.pedantic(extract, rounds=1, iterations=1)
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
    verdict = benchmark.pedantic(
        lambda: detector.classify_window(data["window"]), rounds=1, iterations=1
    )
    assert verdict in (True, False)


def test_bench_fixed_point_classification(benchmark, data):
    detector = SIFTDetector(version="simplified")
    detector.fit(data["train"], data["donors"])
    model = detector.deploy()
    features_q = model.quantize(detector.extractor.extract_stream([data["window"]])[0])
    result = benchmark.pedantic(
        lambda: model.predict_bool_fixed(features_q), rounds=1, iterations=1
    )
    assert result in (True, False)


def test_bench_peak_detection(benchmark, data):
    """R peaks of the paper's Delta = 20 minutes of training ECG.

    At this length a refractory pass that compares each candidate with
    every peak kept so far costs far more than the detector's filters.
    """
    from repro.signals.peaks import detect_r_peaks

    ecg = data["dataset"].training_record(data["victim"]).ecg
    peaks = benchmark.pedantic(
        lambda: detect_r_peaks(ecg, 360.0), rounds=1, iterations=1
    )
    assert peaks.size > 1000


def test_bench_occupancy_histogram(benchmark, data):
    math = RestrictedMath(counter=OpCounter())
    x = np.random.default_rng(0).random(1080)
    y = np.random.default_rng(1).random(1080)
    matrix = benchmark.pedantic(
        lambda: math.histogram2d(x, y, 50), rounds=1, iterations=1
    )
    assert matrix.sum() == 1080


#: Acceptance floor for the SQI kernel's win over the NumPy path (lowest
#: of 10 runs on a 2-core x86 host: 2.79x).
MIN_SQI_SPEEDUP = 2.0


def test_bench_quality_gate(benchmark, data):
    """The SQI gate on serving windows: compiled kernel against NumPy.

    The windows are the 20 float32 windows of 1080 samples the gateway
    assembles from the test record's packets, assessed in turn: a gate
    never sees one window twice, and NumPy's partition runs markedly
    faster on a window it has just partitioned.  Parity before speed:
    both gates must give equal reports first.  The per-window time of
    each side is the best of alternating blocks.
    """
    from repro.gateway import window_from_slot
    from repro.native.sqi import load_kernel
    from repro.signals import quality
    from repro.wiot.channel import DeliveredPacket
    from repro.wiot.sensor import BodySensor

    if load_kernel() is None:
        pytest.skip("SQI kernel unavailable on this host")
    record = data["test"]
    windows = [
        window_from_slot(
            {"ecg": DeliveredPacket(e, 0.0), "abp": DeliveredPacket(a, 0.0)}
        )
        for e, a in zip(
            BodySensor("s-ecg", "ecg", record).packets(),
            BodySensor("s-abp", "abp", record).packets(),
        )
    ]
    assert {(w.ecg.dtype, w.n_samples) for w in windows} == {(np.dtype(np.float32), 1080)}
    kernel_gate = quality.SignalQualityIndex()
    with mock.patch.object(quality, "load_kernel", lambda: None):
        numpy_gate = quality.SignalQualityIndex()
    assert kernel_gate._kernel is not None and numpy_gate._kernel is None
    reports = benchmark.pedantic(
        lambda: [kernel_gate.assess(w) for w in windows], rounds=1, iterations=1
    )
    assert reports == [numpy_gate.assess(w) for w in windows]

    def block(gate) -> float:
        return timeit.timeit(lambda: [gate.assess(w) for w in windows], number=10)

    kernel_s = numpy_s = float("inf")
    for _ in range(7):
        kernel_s = min(kernel_s, block(kernel_gate))
        numpy_s = min(numpy_s, block(numpy_gate))
    assert numpy_s / kernel_s >= MIN_SQI_SPEEDUP
