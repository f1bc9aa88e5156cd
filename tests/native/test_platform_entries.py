"""The one-window entry points honour ``platform="native"``.

``decision_value``, ``classify_window`` and a quality-gated
``StreamingDetector.process_window`` score a batch of one through
``decision_values``, so on a native detector they must reach the
native C scorer -- and still equal the NumPy detector bit-for-bit.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.streaming import StreamingDetector
from repro.core.versions import DetectorVersion
from repro.native import native_status
from repro.native.backend import NativeScorer
from repro.signals.dataset import SignalWindow
from repro.signals.quality import SignalQualityIndex

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

VERSION = DetectorVersion.SIMPLIFIED


@pytest.fixture(scope="module")
def detectors(trained_detectors):
    """(numpy, native) copies of the Simplified session detector."""
    available, reason = native_status(VERSION)
    if not available:
        pytest.skip(f"native backend unavailable: {reason}")
    reference = copy.deepcopy(trained_detectors[VERSION])
    native = copy.deepcopy(trained_detectors[VERSION])
    native.platform = "native"
    assert native.native_active, native.native_error
    return reference, native


@pytest.fixture()
def native_calls(monkeypatch):
    """Count the windows scored through ``NativeScorer.decision_values``."""
    calls: list[int] = []
    original = NativeScorer.decision_values

    def spy(self, windows):
        windows = list(windows)
        calls.append(len(windows))
        return original(self, windows)

    monkeypatch.setattr(NativeScorer, "decision_values", spy)
    return calls


def test_decision_value_goes_native(detectors, labeled_stream, native_calls):
    reference, native = detectors
    windows = labeled_stream.windows
    values = [native.decision_value(w) for w in windows]
    assert native_calls == [1] * len(windows)
    assert np.array_equal(values, [reference.decision_value(w) for w in windows])


def test_classify_window_goes_native(detectors, labeled_stream, native_calls):
    reference, native = detectors
    windows = labeled_stream.windows
    verdicts = [native.classify_window(w) for w in windows]
    assert native_calls == [1] * len(windows)
    assert verdicts == [reference.classify_window(w) for w in windows]


def test_gated_process_window_goes_native(detectors, labeled_stream, native_calls):
    reference, native = detectors
    runs = {}
    for name, detector in (("numpy", reference), ("native", native)):
        streaming = StreamingDetector(
            detector, votes_needed=2, vote_window=3, quality_gate=SignalQualityIndex()
        )
        for window in labeled_stream.windows:
            streaming.process_window(window)
        streaming.finish()
        runs[name] = streaming
    scored = len(labeled_stream) - len(runs["native"].abstained_indexes)
    assert scored > 0
    assert native_calls == [1] * scored
    assert runs["native"].episodes == runs["numpy"].episodes
    assert runs["native"].abstained_indexes == runs["numpy"].abstained_indexes


def test_nan_window_named_by_stream_position(detectors, labeled_stream):
    """NaN windows fall back to NumPy, which rejects them by position."""
    _, native = detectors
    windows = list(labeled_stream.windows[:5])
    ecg = windows[3].ecg.copy()
    ecg[7] = np.nan
    windows[3] = SignalWindow(
        ecg=ecg,
        abp=windows[3].abp,
        r_peaks=windows[3].r_peaks,
        systolic_peaks=windows[3].systolic_peaks,
        sample_rate=windows[3].sample_rate,
    )
    with pytest.raises(ValueError, match=r"window 3 of the stream"):
        native.decision_values(windows)
