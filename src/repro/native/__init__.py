"""Native-speed scoring and training: C for the hot loops.

The package behind ``SIFTDetector(platform="native")``: per-model C code
generation (:mod:`~repro.native.codegen`), host compilation with a cached
artifact (:mod:`~repro.native.build`), and the parity-checked scorer
(:mod:`~repro.native.backend`).  :mod:`~repro.native.smo` runs the SMO
loop of ``SVC.fit`` in C, and :mod:`~repro.native.sqi` the per-window
statistics of the SQI gate.  Everything degrades gracefully -- hosts
without a compiler (or, for the Original tier, without numpy's SVML
``atan2``) simply stay on the NumPy path.
"""

from repro.native.backend import NativeScorer, NativeUnavailableError, native_status
from repro.native.build import (
    BuildError,
    cache_dir,
    compile_flags,
    compile_hot_path,
    find_compiler,
    svml_atan2_supported,
)
from repro.native.codegen import generate_hot_path_source

__all__ = [
    "BuildError",
    "NativeScorer",
    "NativeUnavailableError",
    "cache_dir",
    "compile_flags",
    "compile_hot_path",
    "find_compiler",
    "generate_hot_path_source",
    "native_status",
    "svml_atan2_supported",
]
