"""The zero-copy dataset plane: fan-out cost with and without it.

Asserts on the orchestrated ``dataplane`` study's two measurements,
both honest about what the plane buys:

* **Acquisition stage** -- how long a process takes to obtain the cohort
  record working set.  Attaching shared-memory views is orders of
  magnitude faster than synthesizing (and re-detecting peaks on) the
  recordings, and this is exactly the work every worker used to repeat.
* **End-to-end fan-out** -- wall-clock of a multi-version cohort run
  with ``share_dataset`` on vs off, parent cache cleared first so the
  off mode cannot coast on fork-inherited records.  At benchmark scale
  evaluation dominates, so the end-to-end assertion is equivalence plus
  "the plane never makes fan-out meaningfully slower"; the acquisition
  ratio is where the zero-copy design shows.

Both modes must produce identical outcomes, and neither may leak a
``/dev/shm`` segment (the CI leak-check step re-asserts this after the
whole suite).
"""

from repro.experiments.dataplane import leaked_segments


def test_attach_vs_synthesis_acquisition(orchestrate):
    """The stage the plane removes from every worker, measured directly."""
    acquisition = orchestrate("dataplane").results["acquisition"]
    assert acquisition.complete
    # Attaching must beat re-synthesis by a wide margin -- this is the
    # per-worker rebuild the plane exists to remove.
    assert acquisition.speedup >= 20.0
    assert leaked_segments() == []


def test_cohort_fanout_with_and_without_plane(orchestrate):
    """End-to-end fan-out: identical outcomes, no leaked segments, and
    no meaningful wall-clock regression from publishing the plane."""
    fanout = orchestrate("dataplane").results["fanout"]
    assert fanout.all_ok
    assert fanout.identical
    # Evaluation dominates at this scale, so the plane's win here is
    # bounded -- but it must never cost meaningful wall-clock either.
    assert fanout.with_s <= fanout.without_s * 1.5
    assert leaked_segments() == []
