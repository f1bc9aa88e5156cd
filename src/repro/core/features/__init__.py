"""Feature extraction over portraits.

Three variants, matching the paper's three detector versions:

========== ================================ ======================= =====
Variant    Matrix features                  Geometric features      Count
========== ================================ ======================= =====
Original   SFI, std of column averages,     angles (atan), and        8
           trapezoidal AUC                  Euclidean distances
Simplified SFI, *variance* of column        slopes (y/x) and          8
           averages, composite-sum AUC      *squared* distances
Reduced    (none)                           simplified geometric      5
========== ================================ ======================= =====

The matrix features are statistics of the portrait's ``n x n`` occupancy
grid.  The five geometric features "describe the absolute and relative
location of certain characteristic points (like R peaks in ECG and
Systolic peaks in ABP) of the signals in the portrait": per peak family,
the mean angle (or slope) and distance to the origin, plus the mean
distance between each R peak and its matched systolic peak.

The Simplified and Reduced variants avoid every libm call (``sqrt``,
``atan``); that property is machine-checked by the Amulet simulator's
restricted execution environment.

Every variant is one batched computation over a
:class:`~repro.core.portrait.PortraitBatch`
(:mod:`repro.core.features.batched`); the per-window reference formulas
live in the test suite as an oracle.
"""

from repro.core.features.base import FeatureExtractor
from repro.core.features.original import OriginalFeatureExtractor
from repro.core.features.reduced import ReducedFeatureExtractor
from repro.core.features.simplified import SimplifiedFeatureExtractor

__all__ = [
    "FeatureExtractor",
    "OriginalFeatureExtractor",
    "ReducedFeatureExtractor",
    "SimplifiedFeatureExtractor",
]
