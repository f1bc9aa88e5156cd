"""Adaptive-security bench (paper Insight #4).

Asserts on the orchestrated ``adaptive`` study: a full battery
discharge under each switching policy, lifetime against time-weighted
detection accuracy -- the trade-off curve the paper's envisioned
decision engine navigates.
"""


def test_adaptive_policies(orchestrate):
    timelines = orchestrate("adaptive").results["policies"]
    fixed = timelines["accuracy_first"]
    soc = timelines["soc_threshold"]
    target = timelines["lifetime_target_30d"]

    # Adaptive switching buys lifetime over the static best version...
    assert soc.lifetime_days > fixed.lifetime_days
    # ...at a bounded accuracy cost.
    assert soc.time_weighted_accuracy > fixed.time_weighted_accuracy - 0.06
    # The lifetime-target policy meets its 30-day mission.
    assert target.lifetime_days >= 29.0
    # Every policy keeps detection running until the battery dies.
    for timeline in timelines.values():
        assert timeline.points[-1].battery_soc > 0.0
        assert timeline.n_switches <= 4
