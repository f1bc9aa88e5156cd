"""Behavioural tests of the native backend machinery itself: the
capability probe, the numpy fallback when no toolchain exists, the
artifact cache, and pickling across process boundaries."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import SIFTDetector
from repro.core.detector import PLATFORMS
from repro.core.versions import DetectorVersion
from repro.native import (
    cache_dir,
    compile_flags,
    compile_hot_path,
    find_compiler,
    generate_hot_path_source,
    native_status,
)


class TestPlatformParameter:
    def test_platforms_constant(self):
        assert PLATFORMS == ("numpy", "native")

    def test_rejects_unknown_platform(self):
        with pytest.raises(ValueError, match="platform"):
            SIFTDetector(platform="gpu")

    def test_numpy_platform_never_builds(self, trained_detectors):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        assert detector.platform == "numpy"
        assert not detector.native_active
        assert detector.native_error is None


class TestFallback:
    def test_no_compiler_falls_back_with_warning(
        self, monkeypatch, trained_detectors, labeled_stream
    ):
        """No toolchain: one RuntimeWarning, then numpy-identical scores."""
        monkeypatch.setattr(
            "repro.native.backend.find_compiler", lambda: None
        )
        reference = trained_detectors[DetectorVersion.SIMPLIFIED]
        detector = copy.deepcopy(reference)
        detector.platform = "native"
        with pytest.warns(RuntimeWarning, match="falling back"):
            values = detector.decision_values(labeled_stream)
        assert not detector.native_active
        assert "compiler" in detector.native_error
        assert np.array_equal(values, reference.decision_values(labeled_stream))
        # The failure is remembered: later batches neither warn nor retry.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = detector.decision_values(labeled_stream)
        assert np.array_equal(again, values)

    def test_rbf_kernel_falls_back(self, train_record, train_donors):
        """RBF has no primal weight vector, so there is nothing to
        generate code from -- numpy fallback, not an exception."""
        detector = SIFTDetector(
            version="simplified", kernel="rbf", platform="native"
        )
        detector.fit(train_record, train_donors)
        with pytest.warns(RuntimeWarning, match="linear"):
            assert not detector.native_active

    def test_native_status_reports_reason(self, monkeypatch):
        monkeypatch.setattr(
            "repro.native.backend.find_compiler", lambda: None
        )
        available, reason = native_status(DetectorVersion.SIMPLIFIED)
        assert not available
        assert "compiler" in reason


@pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler on this host"
)
class TestBuildCache:
    def test_artifact_is_cached(self):
        version = DetectorVersion.REDUCED
        source = generate_hot_path_source(
            version,
            50,
            np.linspace(-1.0, 1.0, 5),
            0.125,
            np.zeros(5),
            np.ones(5),
        )
        name, flags = f"sift-{version.value}", compile_flags(version)
        first = compile_hot_path(source, name, flags)
        assert first.exists()
        assert first.name.startswith(f"{name}-")
        stamp = first.stat().st_mtime_ns
        second = compile_hot_path(source, name, flags)
        assert second == first
        assert second.stat().st_mtime_ns == stamp  # no recompile
        assert first.parent == cache_dir()

    def test_compiler_reads_a_per_process_source(self, tmp_path, monkeypatch):
        """Concurrent first builds into a fresh cache each compile their
        own copy of the source, so none can rewrite a file another
        compiler is reading; only the artifact stays behind."""
        if find_compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        real_run = subprocess.run
        sources = []

        def spy(cmd, **kwargs):
            source = next(Path(arg) for arg in cmd if arg.endswith(".c"))
            sources.append((source, source.read_text()))
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(subprocess, "run", spy)
        artifact = compile_hot_path("double probe(double x) { return x; }\n", "probe")
        [(source, text)] = sources
        assert f".{os.getpid()}.c" in source.name
        assert text.startswith("double probe")
        assert sorted(tmp_path.iterdir()) == [artifact]

    def test_flags_pin_fp_contract(self):
        """FMA contraction would silently break bit parity; every tier
        must compile with it off."""
        for version in DetectorVersion:
            assert "-ffp-contract=off" in compile_flags(version)
            assert "-O2" in compile_flags(version)


class TestPickling:
    def test_pickled_native_detector_rebuilds(self, trained_detectors):
        """Pickling drops the library handle (it cannot cross processes);
        the unpickled detector rebuilds from the artifact cache and keeps
        scoring bit-identically -- the supervised-gateway contract."""
        version = DetectorVersion.SIMPLIFIED
        available, reason = native_status(version)
        if not available:
            pytest.skip(f"native backend unavailable: {reason}")
        reference = trained_detectors[version]
        native = copy.deepcopy(reference)
        native.platform = "native"
        assert native.native_active
        clone = pickle.loads(pickle.dumps(native))
        assert clone.platform == "native"
        assert clone._native_scorer is None  # handle dropped
        windows = [
            SignalWindowFactory.simple(i) for i in range(4)
        ]
        assert clone.native_active  # rebuilt (cache hit)
        assert np.array_equal(
            clone.decision_values(windows), reference.decision_values(windows)
        )


class SignalWindowFactory:
    """Small deterministic windows for the pickling test."""

    @staticmethod
    def simple(seed: int):
        from repro.signals.dataset import SignalWindow

        rng = np.random.default_rng(900 + seed)
        n = 96
        return SignalWindow(
            ecg=rng.standard_normal(n),
            abp=80.0 + 10.0 * rng.standard_normal(n),
            r_peaks=np.asarray([7, 40, 77], dtype=np.intp),
            systolic_peaks=np.asarray([12, 46], dtype=np.intp),
            sample_rate=125.0,
        )
