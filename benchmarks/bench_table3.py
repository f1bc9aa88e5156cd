"""Regenerates Table III: memory use and expected battery lifetime.

Each version's app is built into a firmware image, streamed the standard
evaluation windows on the simulated Amulet, and profiled by ARP (the
orchestrator's ``table3`` study).  Shape assertions encode the paper's
Table III:

* detector SRAM: 259 B for the matrix builds, 69 B for Reduced (exact);
* detector FRAM: monotone decreasing, Reduced roughly half Original;
* system FRAM: monotone decreasing (demand linking);
* expected lifetime: Reduced ~2x Original, Simplified slightly above
  Original; absolute values in the tens of days on the 110 mAh cell.
"""

from repro.core.versions import DetectorVersion
from repro.experiments.table3 import Table3Result


def test_reproduce_table3(orchestrate):
    result = Table3Result.merge(list(orchestrate("table3").results.values()))

    profiles = result.profiles
    original = profiles[DetectorVersion.ORIGINAL]
    simplified = profiles[DetectorVersion.SIMPLIFIED]
    reduced = profiles[DetectorVersion.REDUCED]

    # SRAM matches the paper's measurements exactly (derived, not coded).
    assert original.app_sram_bytes == 259
    assert simplified.app_sram_bytes == 259
    assert reduced.app_sram_bytes == 69

    # FRAM orderings.
    assert original.app_fram_bytes > simplified.app_fram_bytes > reduced.app_fram_bytes
    assert reduced.app_fram_bytes < 0.6 * original.app_fram_bytes
    assert original.system_fram_bytes > simplified.system_fram_bytes
    assert simplified.system_fram_bytes > reduced.system_fram_bytes

    # Lifetime (paper: 23 / 26 / 55 days).
    assert reduced.lifetime_days > simplified.lifetime_days > original.lifetime_days
    assert 15 <= original.lifetime_days <= 35
    assert 35 <= reduced.lifetime_days <= 75
    ratio = result.lifetime_ratio(DetectorVersion.ORIGINAL, DetectorVersion.REDUCED)
    assert 1.8 <= ratio <= 3.0  # paper: 55/23 = 2.4
