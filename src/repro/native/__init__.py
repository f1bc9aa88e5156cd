"""Native-speed scoring and training: C for the hot loops.

Three fixed C kernels, each compiled once per host through the artifact
cache of :mod:`~repro.native.build` and loaded once per process:
``score.c`` behind ``SIFTDetector(platform="native")`` and its
parity-checked scorer (:mod:`~repro.native.backend`), which takes every
model's constants as arguments; ``smo.c`` behind the SMO loop of
``SVC.fit`` (:mod:`~repro.native.smo`); and ``sqi.c`` behind the per-window
statistics of the SQI gate (:mod:`~repro.native.sqi`).  Everything degrades
gracefully -- hosts without a compiler (or, for the Original tier, without
numpy's SVML ``atan2``) simply stay on the NumPy path.
"""

from repro.native.backend import NativeScorer, NativeUnavailableError, native_status
from repro.native.build import (
    BuildError,
    cache_dir,
    compile_hot_path,
    find_compiler,
    svml_atan2_supported,
)

__all__ = [
    "BuildError",
    "NativeScorer",
    "NativeUnavailableError",
    "cache_dir",
    "compile_hot_path",
    "find_compiler",
    "native_status",
    "svml_atan2_supported",
]
