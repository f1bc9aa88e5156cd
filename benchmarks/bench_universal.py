"""Universal-model bench: is per-user enrollment worth it?

Leave-one-subject-out universal training vs the paper's per-user models
(see ``repro.experiments.universal``), run as the orchestrator's
``universal`` study.  The expected outcome: the universal model works
-- SIFT checks inter-signal consistency, which transfers across wearers
-- but per-user enrollment buys several points of accuracy, justifying
the paper's protocol.
"""


def test_universal_vs_per_user(orchestrate):
    study = orchestrate("universal").results["loso"]

    # The universal model transfers...
    assert study.universal.accuracy > 0.7
    # ...but never meaningfully beats per-user enrollment.
    assert study.per_user.accuracy >= study.universal.accuracy - 0.02
