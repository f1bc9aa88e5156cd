"""Adaptive security (paper Insight #4): lifetime against accuracy.

Profiles the three builds on the Amulet simulator, then plays a full
battery discharge under each switching policy and compares lifetime
against time-weighted detection accuracy -- the trade-off curve the
paper's envisioned decision engine navigates.
"""

from __future__ import annotations

import numpy as np

from repro.adaptive import (
    AccuracyFirstPolicy,
    DecisionEngine,
    LifetimeTargetPolicy,
    SocThresholdPolicy,
)
from repro.adaptive.engine import AdaptiveTimeline
from repro.adaptive.policy import VersionProfile
from repro.attacks import AttackScenario, ReplacementAttack
from repro.core import SIFTDetector
from repro.core.versions import DetectorVersion
from repro.experiments.reporting import format_table
from repro.signals import SyntheticFantasia
from repro.sift_app import AmuletSIFTRunner

__all__ = ["format_adaptive_policies", "run_adaptive_policies"]


def run_adaptive_policies(seed: int, scenario_seed: int) -> dict[str, AdaptiveTimeline]:
    """One simulated deployment per switching policy, keyed by policy."""
    data = SyntheticFantasia(seed=seed)
    victim = data.subjects[0]
    others = [s for s in data.subjects if s is not victim]
    train = data.training_record(victim, duration=360.0)
    donors = [data.record(s, 120.0, "train") for s in others[:3]]
    stream = AttackScenario(
        ReplacementAttack([data.record(s, 120.0, "test") for s in others[3:6]])
    ).build(data.test_record(victim), np.random.default_rng(scenario_seed))
    candidates = {}
    for version in DetectorVersion:
        runner = AmuletSIFTRunner(SIFTDetector(version=version).fit(train, donors))
        result = runner.run_stream(stream)
        candidates[version] = VersionProfile(
            version=version,
            accuracy=result.report.accuracy,
            profile=runner.profile(period_s=3.0),
        )
    policies = {
        "accuracy_first": AccuracyFirstPolicy(),
        "soc_threshold": SocThresholdPolicy(),
        "lifetime_target_30d": LifetimeTargetPolicy(),
    }
    return {
        name: DecisionEngine(candidates, policy).simulate_deployment(
            step_h=6.0,
            hours_needed=30 * 24.0 if name.startswith("lifetime") else 0.0,
        )
        for name, policy in policies.items()
    }


def format_adaptive_policies(timelines: dict[str, AdaptiveTimeline]) -> str:
    """The ``adaptive_policies`` report: one row per policy."""
    rows = [
        [
            name,
            f"{t.lifetime_days:.1f}",
            f"{100 * t.time_weighted_accuracy:.2f}",
            str(t.n_switches),
            " -> ".join(v.value for v in t.versions_used()),
        ]
        for name, t in timelines.items()
    ]
    return format_table(
        ["policy", "lifetime_days", "avg_accuracy_%", "switches", "versions"], rows
    )
