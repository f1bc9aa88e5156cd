"""Robustness benches: channel loss, artifact load, alert debouncing.

Operational studies extending the paper's evaluation -- see
``repro.experiments.robustness`` for what each sweep models.  They run
as the orchestrator's ``robustness`` study on a 6-subject cohort; each
test asserts one sweep's qualitative finding on the decoded rows.
"""

import pytest


@pytest.fixture(scope="module")
def sweeps(orchestrate):
    """Every robustness sweep's rows, by sweep name."""
    return orchestrate("robustness").results


def test_channel_loss(sweeps):
    rows = sweeps["channel_loss"]
    by_loss = {row["loss_probability"]: row for row in rows}
    # Coverage falls roughly like (1-p)^2 (both halves must arrive)...
    assert by_loss[0.0]["window_coverage"] == pytest.approx(1.0)
    assert by_loss[0.4]["window_coverage"] < 0.6
    # ...but accuracy on the windows that DO assemble barely moves.
    assert (
        by_loss[0.4]["accuracy_on_classified"]
        > by_loss[0.0]["accuracy_on_classified"] - 0.1
    )


def test_artifact_load(sweeps):
    rows = sweeps["artifact_load"]
    by_rate = {row["artifact_rate_per_min"]: row for row in rows}
    # Clean signals are easiest; heavy artifact load costs accuracy,
    # mostly through false positives (genuine windows start looking odd).
    assert by_rate[0.0]["accuracy"] >= by_rate[12.0]["accuracy"]
    assert by_rate[12.0]["fp_rate"] >= by_rate[0.0]["fp_rate"]
    # Even under heavy artifacts the detector stays useful.
    assert by_rate[12.0]["accuracy"] > 0.6


def test_debouncing(sweeps):
    rows = sweeps["debounce"]
    by_k = {row["votes_needed"]: row for row in rows}
    # Stricter voting cannot raise the false-episode rate...
    assert (
        by_k[3]["false_episodes_per_run"] <= by_k[1]["false_episodes_per_run"]
    )
    # ...and sustained attacks are still caught.
    assert by_k[2]["attack_catch_rate"] >= 0.8
    assert by_k[3]["attack_catch_rate"] >= 0.8
