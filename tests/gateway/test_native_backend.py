"""The gateway's ``platform="native"`` lane: verdict bit-identity
against the NumPy fleet, in-process and supervised."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.versions import DetectorVersion
from repro.gateway.loadgen import run_gateway_load, train_serving_detectors
from repro.native import native_status

COMMON = dict(
    n_wearers=6, stream_s=9.0, batch_size=16, loss_probability=0.0, seed=5,
    period_s=0.0,
)


def _collect(**kwargs):
    verdicts = []
    report = run_gateway_load(
        on_verdict=verdicts.append, **COMMON, **kwargs
    )
    ordered = sorted(verdicts, key=lambda v: (v.wearer_id, v.sequence))
    keys = [(v.wearer_id, v.sequence) for v in ordered]
    values = np.array([v.decision_value for v in ordered])
    return report, keys, values


class TestNativeFleetParity:
    def test_rejects_unknown_platform(self):
        with pytest.raises(ValueError, match="platform"):
            run_gateway_load(platform="fpga", **COMMON)

    def test_train_serving_detectors_platform(self):
        _, fitted = train_serving_detectors(
            versions=("reduced",), n_subjects=4, train_s=60.0, platform="native"
        )
        assert fitted[DetectorVersion.REDUCED].platform == "native"

    def test_native_fleet_verdicts_bit_identical(self):
        """The acceptance gateway run: a native fleet's verdict stream is
        bit-identical to the numpy fleet's (falls back transparently on
        hosts without a toolchain -- still bit-identical by construction)."""
        _, numpy_keys, numpy_values = _collect()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, native_keys, native_values = _collect(platform="native")
        assert native_keys == numpy_keys
        assert np.array_equal(native_values, numpy_values, equal_nan=True)

    def test_supervised_native_fleet_bit_identical(self):
        """Native + supervised: the child rebuilds the extension from the
        artifact cache; crash isolation and parity compose."""
        available, reason = native_status(DetectorVersion.ORIGINAL)
        if not available:
            pytest.skip(f"native backend unavailable: {reason}")
        _, numpy_keys, numpy_values = _collect()
        _, native_keys, native_values = _collect(
            platform="native", supervised=True
        )
        assert native_keys == numpy_keys
        assert np.array_equal(native_values, numpy_values, equal_nan=True)
