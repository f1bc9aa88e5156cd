"""Regenerates Fig. 3: the ARP-view resource-consumption snapshot.

The orchestrator's ``fig3`` study profiles the Original SIFT app (the
version the paper's figure shows) and the Simplified one, renders the
per-component current breakdown and the battery-life / detection-period
slider sweep, plus the grid-size resource sweep.  The asserts pin the
qualitative structure: compute plus BLE dominate the dynamic budget, and
lifetime grows monotonically with the detection period.
"""

import math


def test_reproduce_fig3(orchestrate):
    result = orchestrate("fig3").results["profile"]

    profile = result.profile
    breakdown = profile.current_breakdown

    # Components partition the average current.
    assert sum(breakdown.values()) == abs(profile.average_current_ma) or (
        abs(sum(breakdown.values()) - profile.average_current_ma) < 1e-12
    )

    # The libm build bills double-precision CPU work, and that work plus
    # BLE reception dominate the dynamic budget.
    top_two = {name for name, _ in result.top_consumers(2)}
    assert any(name.startswith("cpu.double") for name in top_two)
    assert "peripheral.ble_radio" in top_two

    # The ARP-view slider: longer detection period, longer battery life.
    periods = sorted(result.period_sweep)
    lifetimes = [result.period_sweep[p] for p in periods]
    assert lifetimes == sorted(lifetimes)
    assert lifetimes[-1] > 1.5 * lifetimes[0]

    # Static draws bound the slider's asymptote.
    static = sum(v for k, v in breakdown.items() if k.startswith("static."))
    asymptote = profile.battery.lifetime_days(static)
    assert all(days < asymptote for days in lifetimes)


def test_grid_resource_sweep(orchestrate):
    """The resource half of the grid-size trade-off (ARP-view slider)."""
    rows = orchestrate("fig3").results["grid_sweep"]
    by_grid = {row["grid_n"]: row for row in rows}
    # FRAM grows with n^2; the paper's n = 50 fits, n = 100 cannot deploy
    # under the platform's array-size limit (Insight #1).
    assert by_grid[50.0]["deployable"] == 1.0
    assert by_grid[100.0]["deployable"] == 0.0
    assert math.isnan(by_grid[100.0]["lifetime_days"])
    assert by_grid[50.0]["detector_fram_kb"] > by_grid[10.0]["detector_fram_kb"]
    assert by_grid[50.0]["lifetime_days"] <= by_grid[10.0]["lifetime_days"]


def test_fig3_simplified_has_no_libm_components(orchestrate):
    result = orchestrate("fig3").results["profile_simplified"]
    assert not any(
        "libm" in name or "double" in name
        for name in result.profile.current_breakdown
    )
