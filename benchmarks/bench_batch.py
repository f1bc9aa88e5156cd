"""Microbenchmarks: one window at a time vs whole-stream window scoring.

Scoring a whole stream at once amortizes per-window NumPy dispatch
overhead.  These benches compare it with scoring each window as a batch
of one (``decision_value``) on a 2-minute evaluation stream (40 windows
at the paper's 3-second window) and assert the speedups batching buys:

* the *scoring stage* (standardize + SVM decision) batched over the
  stream must beat the per-window loop by >= 5x -- this is pure NumPy
  dispatch amortization, the loop pays ~40 small matmuls and transforms
  where the batch pays one;
* the *end-to-end* path (portrait -> features -> scores) must also win,
  by a smaller margin, since per-window peak geometry is irreducibly
  per-window.

Both paths are asserted bit-identical before timing, so the benches also
act as an equivalence smoke test on a stream larger than the unit tests'.
"""

import time

import numpy as np
import pytest

from repro.attacks import AttackScenario, ReplacementAttack
from repro.core import SIFTDetector
from repro.signals import SyntheticFantasia


@pytest.fixture(scope="module")
def setup():
    """A trained Simplified detector and its 2-minute labelled stream."""
    data = SyntheticFantasia(n_subjects=4, seed=7)
    victim = data.subjects[0]
    others = data.subjects[1:]
    detector = SIFTDetector(version="simplified")
    detector.fit(
        data.record(victim, 180.0, purpose="train"),
        [data.record(s, 60.0, purpose="train") for s in others[:3]],
    )
    stream = AttackScenario(
        ReplacementAttack([data.record(s, 60.0, purpose="test") for s in others[:1]])
    ).build(data.record(victim, 120.0, purpose="test"), np.random.default_rng(3))
    assert len(stream) == 40  # 2 minutes / 3 s windows
    return detector, stream


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_scalar_stream_scoring(benchmark, setup):
    detector, stream = setup
    values = benchmark.pedantic(
        lambda: [detector.decision_value(w) for w in stream.windows],
        rounds=1,
        iterations=1,
    )
    assert len(values) == len(stream)


def test_batch_stream_scoring(benchmark, setup):
    detector, stream = setup
    values = benchmark.pedantic(
        lambda: detector.decision_values(stream), rounds=1, iterations=1
    )
    assert values.shape == (len(stream),)


def test_batch_scoring_speedup(setup):
    """Acceptance: batched window scoring >= 5x scoring one window at a time."""
    detector, stream = setup

    # Equivalence first -- a fast wrong answer is no speedup.
    batch_values = detector.decision_values(stream)
    scalar_values = np.array(
        [detector.decision_value(w) for w in stream.windows]
    )
    assert np.array_equal(batch_values, scalar_values)

    # The scoring stage: standardize + decision over precomputed features.
    features = detector.extractor.extract_stream(stream)
    rows = [detector.extractor.extract_stream([w])[0] for w in stream.windows]

    def scalar_score():
        return [
            float(
                detector.svc.decision_function(detector.scaler.transform(row))[0]
            )
            for row in rows
        ]

    def batch_score():
        return detector.svc.decision_function(detector.scaler.transform(features))

    scalar_t = _best_of(scalar_score, rounds=20)
    batch_t = _best_of(batch_score, rounds=20)
    speedup = scalar_t / batch_t
    print(
        f"\nscoring stage: scalar {scalar_t * 1e6:.0f} us, "
        f"batch {batch_t * 1e6:.0f} us, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0

    # End to end (portrait -> features -> scores) the batch path must
    # still win, though peak geometry keeps part of the work per-window.
    scalar_e2e = _best_of(
        lambda: [detector.decision_value(w) for w in stream.windows], rounds=5
    )
    batch_e2e = _best_of(lambda: detector.decision_values(stream), rounds=5)
    print(
        f"end to end: scalar {scalar_e2e * 1e3:.2f} ms, "
        f"batch {batch_e2e * 1e3:.2f} ms, "
        f"speedup {scalar_e2e / batch_e2e:.2f}x"
    )
    assert batch_e2e < scalar_e2e
