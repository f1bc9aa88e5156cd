"""Ablation benches over the design choices the paper fixes.

The orchestrator's ``ablations`` study sweeps each knob on a mid-size
cohort (7 subjects -- enough for stable averages, small enough to keep
the suite's runtime reasonable) and saves one table per sweep; each test
here asserts one sweep's qualitative finding on the decoded rows.

The cohort-mean sweeps honour ``--jobs N``: each setting's per-subject
runs fan over a worker pool fed by the zero-copy dataset plane, cutting
the sweep's wall-clock without changing a single number.
"""

import pytest


@pytest.fixture(scope="module")
def sweeps(orchestrate):
    """Every ablation's rows, by ablation name."""
    return orchestrate("ablations").results


def test_window_size(sweeps):
    rows = sweeps["window_size"]
    by_window = {row["window_s"]: row["accuracy"] for row in rows}
    # w = 3 s (the paper's choice) is competitive with the best setting.
    assert by_window[3.0] >= max(by_window.values()) - 0.08
    # All settings beat chance clearly.
    assert min(by_window.values()) > 0.6


def test_grid_size(sweeps):
    rows = sweeps["grid_size"]
    by_grid = {row["grid_n"]: row["accuracy"] for row in rows}
    # n = 50 (the paper's choice) is competitive.
    assert by_grid[50] >= max(by_grid.values()) - 0.05


def test_training_duration(sweeps):
    rows = sweeps["training_duration"]
    accuracies = [row["accuracy"] for row in rows]
    # More training data never hurts much: the longest duration is within
    # a hair of the best, and clearly above the shortest.
    assert accuracies[-1] >= max(accuracies) - 0.03
    assert accuracies[-1] >= accuracies[0] - 0.02


def test_feature_classes(sweeps):
    rows = sweeps["feature_classes"]
    by_name = {row["features"]: row["accuracy"] for row in rows}
    # The combination beats either class alone -- the reason the Reduced
    # build (geometric only) loses accuracy in Table II.
    assert by_name["both (simplified)"] >= by_name["matrix_only"]
    assert by_name["both (simplified)"] >= by_name["geometric_only (reduced)"] - 0.01


def test_classifier_choice(sweeps):
    rows = sweeps["classifier"]
    by_name = {row["classifier"]: row["accuracy"] for row in rows}
    # "SVM performed the best among the algorithms we tried" -- allow a
    # small margin since baselines are competently tuned.
    best = max(by_name.values())
    assert by_name["svm_linear"] >= best - 0.03
    assert by_name["svm_linear"] >= by_name["centroid"] - 0.02


def test_fixed_point_precision(sweeps):
    rows = sweeps["fixed_point"]
    by_bits = {row["frac_bits"]: row["agreement_with_float"] for row in rows}
    # Agreement with the float model grows with precision; the deployed
    # Q17.14 format is effectively lossless.
    assert by_bits[14] >= 0.98
    assert by_bits[14] >= by_bits[4]


def test_attack_types(sweeps):
    rows = sweeps["attack_types"]
    by_attack = {row["attack"]: row for row in rows}
    # The trained-for attack is detected best.
    assert by_attack["replacement"]["accuracy"] > 0.8
    # Replay and morphology transfer reasonably (attack-agnostic claim)...
    assert by_attack["replay"]["accuracy"] > 0.6
    assert by_attack["morphology"]["accuracy"] > 0.6
    # ...but low-amplitude in-band interference is a genuine blind spot.
    assert (
        by_attack["interference"]["fn_rate"]
        > by_attack["replacement"]["fn_rate"]
    )


def test_mixed_attack_training(sweeps):
    rows = sweeps["mixed_attack_training"]
    by_key = {(row["training"], row["eval_attack"]): row for row in rows}
    # Mixed training closes the interference blind spot dramatically...
    assert (
        by_key[("mixed", "interference")]["fn_rate"]
        < 0.5 * by_key[("replacement_only", "interference")]["fn_rate"]
    )
    # ...at a real but bounded cost on replacement detection (the
    # replacement positives are diluted to a third of the class) -- the
    # classic coverage-vs-specialization trade-off.
    assert (
        by_key[("mixed", "replacement")]["accuracy"]
        > by_key[("replacement_only", "replacement")]["accuracy"] - 0.15
    )
    assert by_key[("mixed", "replacement")]["accuracy"] > 0.7
