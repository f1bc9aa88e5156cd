"""Regenerates Table II: detection performance of the three versions.

The full paper protocol -- 12 subjects, 20-minute training, 2-minute
50 %-altered unseen test streams, both platforms -- runs once through
the orchestrator's ``table2`` study.  Shape assertions encode the
paper's qualitative result:

* Original and Simplified are comparable and both strong (>= ~85 %);
* Reduced is several points worse;
* the device (Amulet) rows track the reference (MATLAB) rows closely.
"""

from repro.core.versions import DetectorVersion
from repro.experiments.table2 import Table2Result


def test_reproduce_table2(orchestrate):
    result = Table2Result.merge(list(orchestrate("table2").results.values()))
    acc = {(row.version, row.platform): row.report.accuracy for row in result.rows}
    # Original ~ Simplified, both strong.
    for platform in ("amulet", "reference"):
        assert acc[(DetectorVersion.ORIGINAL, platform)] > 0.85
        assert acc[(DetectorVersion.SIMPLIFIED, platform)] > 0.85
        gap = abs(
            acc[(DetectorVersion.ORIGINAL, platform)]
            - acc[(DetectorVersion.SIMPLIFIED, platform)]
        )
        assert gap < 0.05
        # Reduced loses several points (paper: ~5-10).
        assert (
            acc[(DetectorVersion.REDUCED, platform)]
            < acc[(DetectorVersion.SIMPLIFIED, platform)] - 0.01
        )
        assert acc[(DetectorVersion.REDUCED, platform)] > 0.75

    # Device tracks reference per version.
    for version in DetectorVersion:
        assert abs(acc[(version, "amulet")] - acc[(version, "reference")]) < 0.05
