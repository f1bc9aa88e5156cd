"""SIFT: SIgnal Feature-correlation-based Testing.

The paper's primary contribution: detect hijacking of an ECG sensor by
checking each ``w``-second ECG snippet for consistency with the trusted
arterial blood pressure (ABP) signal measured in tandem.

Pipeline (paper Fig. 2):

1. **Portrait** -- normalize the two signals and plot them against each
   other: ``P = { (a(t), e(t)) : 0 <= t <= w }``
   (:mod:`repro.core.portrait`);
2. **Feature extraction** -- 3 matrix features over a 50x50 occupancy grid
   plus 5 geometric features over the R/systolic peaks
   (:mod:`repro.core.features`), in *Original*, *Simplified* and *Reduced*
   variants (:mod:`repro.core.versions`);
3. **Training** -- per-user SVM over negative (own) and positive
   (cross-subject) portraits (:mod:`repro.core.training`);
4. **Detection** -- classify each incoming window; positive labels raise
   alerts (:mod:`repro.core.detector`, :mod:`repro.core.alerts`).
"""

from repro.core.alerts import Alert, AlertLog
from repro.core.detector import DEFAULT_CHUNK_SIZE, PLATFORMS, SIFTDetector
from repro.core.features import (
    FeatureExtractor,
    OriginalFeatureExtractor,
    ReducedFeatureExtractor,
    SimplifiedFeatureExtractor,
)
from repro.core.portrait import PortraitBatch, build_portrait_batch
from repro.core.serialization import (
    detector_from_json,
    detector_to_json,
    load_detector,
    save_detector,
)
from repro.core.streaming import AttackEpisode, StreamingDetector
from repro.core.training import TrainingSet, build_training_set
from repro.core.versions import DetectorVersion, make_extractor

__all__ = [
    "Alert",
    "AlertLog",
    "AttackEpisode",
    "DEFAULT_CHUNK_SIZE",
    "DetectorVersion",
    "FeatureExtractor",
    "OriginalFeatureExtractor",
    "PLATFORMS",
    "PortraitBatch",
    "ReducedFeatureExtractor",
    "SIFTDetector",
    "SimplifiedFeatureExtractor",
    "StreamingDetector",
    "TrainingSet",
    "build_portrait_batch",
    "build_training_set",
    "detector_from_json",
    "detector_to_json",
    "load_detector",
    "make_extractor",
    "save_detector",
]
