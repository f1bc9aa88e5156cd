"""Benchmarks: bounded-memory chunked scoring vs one-shot batch scoring.

``SIFTDetector.iter_decision_values`` exists so a long stream can be
scored with peak memory proportional to the *chunk*, not the stream.
These benches check both halves of that claim on a 30-minute recording
(600 windows at the paper's 3-second window; ``--quick`` shrinks it to
6 minutes for CI smoke runs):

* the chunked path is **bit-identical** to one-shot
  :meth:`~repro.core.SIFTDetector.decision_values`, including at odd
  chunk sizes that straddle the stream length unevenly;
* the chunked peak (tracemalloc) is a small multiple of one chunk's
  working set -- several times below the one-shot peak, and nearly
  unchanged when the stream doubles.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import SIFTDetector
from repro.signals import SyntheticFantasia, iter_windows

WINDOW_S = 3.0
CHUNK = 16


@pytest.fixture(scope="module")
def setup(quick):
    """A trained Simplified detector and a long genuine test record."""
    data = SyntheticFantasia(n_subjects=4, seed=11)
    victim = data.subjects[0]
    others = data.subjects[1:]
    detector = SIFTDetector(version="simplified")
    detector.fit(
        data.record(victim, 180.0, purpose="train"),
        [data.record(s, 60.0, purpose="train") for s in others[:3]],
    )
    duration_s = 360.0 if quick else 1800.0
    record = data.record(victim, duration_s, purpose="test")
    n_windows = int(duration_s / WINDOW_S)
    return detector, record, n_windows


def _windows(record, n: int | None = None):
    """A fresh lazy window generator over ``record`` (first ``n`` windows)."""
    gen = iter_windows(record, WINDOW_S)
    if n is None:
        yield from gen
    else:
        for _, window in zip(range(n), gen):
            yield window


def _peak_bytes(fn) -> int:
    """Peak traced allocation while running ``fn``."""
    gc.collect()
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_chunked_equivalence(setup):
    """Chunked scores concatenate to the exact one-shot values."""
    detector, record, n_windows = setup
    one_shot = detector.decision_values(list(_windows(record)))
    assert one_shot.shape == (n_windows,)
    for chunk_size in (7, 64, n_windows):
        chunked = np.concatenate(
            list(detector.iter_decision_values(_windows(record), chunk_size))
        )
        assert np.array_equal(chunked, one_shot), f"chunk_size={chunk_size}"


def test_chunked_peak_memory(setup, quick):
    """Acceptance: peak memory bounded by the chunk, not the stream."""
    detector, record, n_windows = setup

    one_shot_peak = _peak_bytes(
        lambda: detector.decision_values(list(_windows(record)))
    )

    def run_chunked(n: int | None = None) -> None:
        for values in detector.iter_decision_values(_windows(record, n), CHUNK):
            values.sum()  # consume, keep nothing

    chunked_peak = _peak_bytes(run_chunked)
    half_peak = _peak_bytes(lambda: run_chunked(n_windows // 2))

    ratio = one_shot_peak / chunked_peak
    growth = chunked_peak / half_peak
    print(
        f"\none-shot peak {one_shot_peak / 2**20:.1f} MiB, "
        f"chunked({CHUNK}) peak {chunked_peak / 2**20:.1f} MiB "
        f"({ratio:.1f}x smaller); full/half-stream growth {growth:.2f}x"
    )
    # Quick mode has fewer windows, so the stream/chunk ratio shrinks too.
    assert ratio >= (3.0 if quick else 4.0)
    # Doubling the stream must not double the chunked peak.
    assert growth <= 1.5


def test_one_shot_stream_scoring(benchmark, setup):
    detector, record, n_windows = setup
    values = benchmark.pedantic(
        lambda: detector.decision_values(list(_windows(record))),
        rounds=1,
        iterations=1,
    )
    assert values.shape == (n_windows,)


def test_chunked_stream_scoring(benchmark, setup):
    detector, record, n_windows = setup

    def run():
        return sum(
            len(v) for v in detector.iter_decision_values(_windows(record), 256)
        )

    assert benchmark.pedantic(run, rounds=1, iterations=1) == n_windows
