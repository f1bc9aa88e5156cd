"""Bit-parity of the native C scoring core against NumPy.

The ``platform="native"`` contract is not "close": every decision value
must be bit-identical to the NumPy reference path -- the same contract
the batch path already honours against the per-window oracle.  These tests
drive both paths over hypothesis-generated windows (arbitrary signals,
arbitrary peak sets, ragged lengths) and the shared labelled stream,
and compare with ``np.array_equal`` (no tolerance).

Skips per tier when the host cannot build that tier (no C compiler, or
no SVML atan2 for Original); the fallback behaviour itself is covered
in ``test_backend.py``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SIFTDetector
from repro.core.versions import DetectorVersion
from repro.native import native_status
from repro.signals.dataset import SignalWindow
from tests.core import oracle

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def detector_pairs(trained_detectors):
    """Per-tier (numpy, native) copies of the session detectors.

    The session fixtures are immutable, so each tier gets deep copies;
    the native copy's extension is built once here (module scope) and
    reused by every example.
    """
    pairs = {}
    for version, detector in trained_detectors.items():
        available, reason = native_status(version)
        if not available:
            continue
        reference = copy.deepcopy(detector)
        native = copy.deepcopy(detector)
        native.platform = "native"
        assert native.native_active, native.native_error
        pairs[version] = (reference, native)
    if not pairs:
        pytest.skip("native backend unavailable on this host")
    return pairs


def _window(ecg, abp, r, s, rate=125.0):
    return SignalWindow(
        ecg=np.asarray(ecg, dtype=np.float64),
        abp=np.asarray(abp, dtype=np.float64),
        r_peaks=np.asarray(sorted(set(r)), dtype=np.intp),
        systolic_peaks=np.asarray(sorted(set(s)), dtype=np.intp),
        sample_rate=rate,
    )


@st.composite
def windows(draw, min_n: int = 1, max_n: int = 120):
    n = draw(st.integers(min_n, max_n))
    rate = draw(st.sampled_from([40.0, 125.0, 360.0]))
    sample = st.floats(
        min_value=-50.0, max_value=50.0, allow_nan=False, width=64
    )
    ecg = draw(st.lists(sample, min_size=n, max_size=n))
    abp = draw(st.lists(sample, min_size=n, max_size=n))
    peak = st.integers(0, n - 1)
    r = draw(st.lists(peak, max_size=10))
    s = draw(st.lists(peak, max_size=10))
    return _window(ecg, abp, r, s, rate)


def _assert_parity(pairs, stream):
    for version, (reference, native) in pairs.items():
        expected = reference.decision_values(stream)
        actual = native.decision_values(stream)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected), (
            f"{version.value}: native diverged from numpy "
            f"(max |diff| {np.abs(actual - expected).max()})"
        )


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(windows(), min_size=1, max_size=4))
def test_native_matches_numpy_on_arbitrary_windows(detector_pairs, stream):
    """Property: bit parity on ragged streams of arbitrary windows."""
    _assert_parity(detector_pairs, stream)


def test_native_matches_numpy_on_labelled_stream(detector_pairs, labeled_stream):
    """Parity on the shared realistic evaluation stream."""
    _assert_parity(detector_pairs, list(labeled_stream.windows))


def test_native_matches_scalar_path(detector_pairs, labeled_stream):
    """Native must equal the per-window oracle too (transitively
    guaranteed by batch==oracle, asserted directly here)."""
    for _, (reference, native) in detector_pairs.items():
        scalar = np.array(
            [oracle.decision_value(reference, w) for w in labeled_stream.windows]
        )
        assert np.array_equal(native.decision_values(labeled_stream), scalar)


def test_peaks_edge_cases(detector_pairs):
    """No peaks, all-sample peaks, and boundary peaks score identically."""
    n = 64
    t = np.linspace(0.0, 4.0, n)
    ecg = np.sin(2 * np.pi * 1.3 * t)
    abp = 80.0 + 20.0 * np.cos(2 * np.pi * 1.3 * t - 0.4)
    stream = [
        _window(ecg, abp, [], []),
        _window(ecg, abp, [0, n - 1], [n - 1]),
        _window(ecg, abp, range(n), range(n)),
        _window(ecg, abp, [5, 20, 40], []),
        _window(ecg, abp, [], [5, 20, 40]),
    ]
    _assert_parity(detector_pairs, stream)


def test_degenerate_windows(detector_pairs):
    """Flat, constant, tiny, and antisymmetric windows score identically."""
    stream = [
        _window(np.zeros(32), np.zeros(32), [], []),
        _window(np.full(32, 1.0), np.full(32, 7.5), [3], [4]),
        _window([0.25], [1.5], [0], [0]),
        _window([1.0, -1.0], [-2.0, 2.0], [0, 1], [1]),
        _window(np.linspace(-1, 1, 16), np.linspace(1, -1, 16), [0], [15]),
    ]
    _assert_parity(detector_pairs, stream)


def test_empty_stream(detector_pairs):
    for _, (reference, native) in detector_pairs.items():
        expected = reference.decision_values([])
        actual = native.decision_values([])
        assert actual.shape == expected.shape == (0,)


def test_chunk_boundary_invariance(detector_pairs, labeled_stream):
    """Chunked native scoring is invariant to the chunk size and equals
    the one-shot NumPy scores at every chunk size."""
    stream = list(labeled_stream.windows)
    for _, (reference, native) in detector_pairs.items():
        expected = reference.decision_values(stream)
        for chunk_size in (1, 7, len(stream)):
            chunked = np.concatenate(
                list(native.iter_decision_values(iter(stream), chunk_size))
            )
            assert np.array_equal(chunked, expected), f"chunk={chunk_size}"


def test_non_default_grid_n(train_record, train_donors):
    """Parity holds for a non-default occupancy grid size (the grid
    dimension is an argument of the one compiled kernel, so every size
    runs the same machine code)."""
    version = DetectorVersion.SIMPLIFIED
    available, reason = native_status(version)
    if not available:
        pytest.skip(f"native backend unavailable: {reason}")
    reference = SIFTDetector(version=version, grid_n=17)
    reference.fit(train_record, train_donors)
    native = copy.deepcopy(reference)
    native.platform = "native"
    assert native.native_active, native.native_error
    windows = [
        train_record.window(i * 1080, 1080) for i in range(8)
    ]
    assert np.array_equal(
        native.decision_values(windows), reference.decision_values(windows)
    )


def test_reduced_nan_windows_fall_back_bit_identically(detector_pairs):
    """The Reduced tier propagates NaN instead of raising; the native
    path must route NaN windows to the fallback and match bit-for-bit
    (including the NaN payload)."""
    if DetectorVersion.REDUCED not in detector_pairs:
        pytest.skip("reduced tier unavailable")
    reference, native = detector_pairs[DetectorVersion.REDUCED]
    nan_ecg = np.full(32, np.nan)
    good = np.linspace(0.0, 1.0, 32)
    stream = [
        _window(good, good + 1.0, [2, 20], [5]),
        _window(nan_ecg, good, [2], [5]),
        _window(good, good, [1], [2]),
    ]
    expected = reference.decision_values(stream)
    actual = native.decision_values(stream)
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.isnan(actual[1])


def test_more_peaks_than_samples_fall_back(detector_pairs):
    """A window listing more peaks than it has samples (repeated
    indexes) would overrun the kernel's per-peak scratch; it goes to the
    fallback, alone or among eligible windows of its length."""
    good = np.linspace(0.0, 1.0, 16)
    crowded = SignalWindow(
        ecg=good,
        abp=good[::-1].copy(),
        r_peaks=np.zeros(4000, dtype=np.intp),
        systolic_peaks=np.ones(4000, dtype=np.intp),
        sample_rate=125.0,
    )
    stream = [_window(good, good + 1.0, [2, 9], [5]), crowded]
    for reference, native in detector_pairs.values():
        for windows in ([crowded], stream):
            assert np.array_equal(
                native.decision_values(windows),
                reference.decision_values(windows),
            )
