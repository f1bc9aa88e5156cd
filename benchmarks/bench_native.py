"""Benchmarks: the native core vs NumPy, for scoring and for SVM training.

Asserts on the orchestrated ``native`` study.  ``platform="native"``
runs the whole scoring hot path (normalize -> occupancy grid ->
features -> decision value) in one C kernel.  The contract is
*bit parity at native speed*: the native scores must be bit-identical
to the NumPy path on a long genuine stream, with the throughput win
that justifies the backend (>= 2x windows/sec on every tier; measured
~3-4x on CI-class hardware).

``test_native_smo_speedup`` does the same for training: the C SMO
solver must fit a Table II-sized (800 x 8) training set bit-identically
to the NumPy loop, and >= 5x faster.

Skips cleanly when the host has no C compiler (or, for the Original
tier, no SVML atan2) -- the fallback path is covered by the unit tests.
"""

import pytest

from repro.core.versions import DetectorVersion
from repro.native import native_status

#: Acceptance floor for the native win, ``--quick`` or not: the
#: measurement is the full protocol either way (lowest of 10 runs on a
#: 2-core x86 host: 2.54x, the reduced tier).
MIN_SPEEDUP = 2.0

#: The same floor for SVM training (lowest of 10 runs there: 11.6x).
MIN_SMO_SPEEDUP = 5.0


@pytest.mark.parametrize("version", list(DetectorVersion), ids=lambda v: v.value)
def test_native_scoring_speedup(orchestrate, version):
    """Acceptance: native is bit-identical and >= 2x NumPy windows/sec."""
    available, reason = native_status(version)
    if not available:
        pytest.skip(f"native backend unavailable: {reason}")
    tier = orchestrate("native").results[version.value]
    # The host can build, so a missing native lane is a broken build.
    assert tier["available"], tier["reason"]
    # Parity before speed -- a fast wrong answer is no speedup.
    assert tier["bit_identical"]
    assert tier["speedup"] >= MIN_SPEEDUP


def test_native_smo_speedup(orchestrate):
    """Acceptance: the C SMO fit is bit-identical and >= 5x the NumPy loop."""
    fit = orchestrate("native").results["smo"]
    if fit.reason != "ok":
        pytest.skip(f"native SMO kernel unavailable: {fit.reason}")
    assert (fit.n_samples, fit.n_features) == (800, 8)
    # Parity before speed.
    assert fit.bit_identical
    assert fit.speedup >= MIN_SMO_SPEEDUP
