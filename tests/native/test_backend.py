"""Behavioural tests of the native backend machinery itself: the
capability probe, the numpy fallback when no toolchain exists, the
artifact cache, the one kernel behind every model, and pickling across
process boundaries."""

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
    compile_hot_path,
    find_compiler,
    native_status,
)
from repro.native.backend import SOURCE_PATH, load_kernel


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
        source = SOURCE_PATH.read_text()
        first = compile_hot_path(source, "score")
        assert first.exists()
        assert first.name.startswith("score-")
        stamp = first.stat().st_mtime_ns
        second = compile_hot_path(source, "score")
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

    @staticmethod
    def _spy_compiles(monkeypatch, tmp_path) -> list[list[str]]:
        """A fresh cache and loader; returns the compiler command lines."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        load_kernel.cache_clear()
        real_run = subprocess.run
        commands: list[list[str]] = []

        def spy(cmd, **kwargs):
            commands.append(cmd)
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(subprocess, "run", spy)
        return commands

    def test_flags_pin_fp_contract(self, tmp_path, monkeypatch):
        """FMA contraction would silently break bit parity, so score.c
        compiles with it off; the AVX-512 code is confined to its own
        target attribute, so no flag enables AVX-512 for every tier."""
        commands = self._spy_compiles(monkeypatch, tmp_path)
        try:
            load_kernel()
        finally:
            load_kernel.cache_clear()
        [cmd] = commands
        assert "-ffp-contract=off" in cmd
        assert "-O2" in cmd
        assert not any(flag.startswith("-mavx") for flag in cmd)

    def test_one_kernel_serves_every_model(
        self, tmp_path, monkeypatch, trained_detectors, train_record,
        train_donors, labeled_stream,
    ):
        """Two fits of one tier, grid sizes 2 and 17 and every tier the
        host supports all score through one compiled library: the
        compiler runs once, the library loads once, and every scorer
        bit-matches its NumPy detector."""
        references = [
            SIFTDetector(version="simplified", C=0.25),
            SIFTDetector(version="simplified", grid_n=2),
            SIFTDetector(version="simplified", grid_n=17),
        ]
        for detector in references:
            detector.fit(train_record, train_donors)
        references += [
            detector
            for version, detector in trained_detectors.items()
            if native_status(version)[0]
        ]
        commands = self._spy_compiles(monkeypatch, tmp_path)
        try:
            for reference in references:
                native = copy.deepcopy(reference)
                native.platform = "native"
                assert native.native_active, native.native_error
                assert np.array_equal(
                    native.decision_values(labeled_stream),
                    reference.decision_values(labeled_stream),
                )
            assert load_kernel.cache_info().misses == 1  # one load
        finally:
            load_kernel.cache_clear()
        assert len(commands) == 1  # one compile


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
