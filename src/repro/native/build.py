"""Host-side compilation of the native core's fixed C kernels.

``score.c`` (the scoring hot path), ``smo.c`` (SVM training) and
``sqi.c`` (the SQI gate's statistics) are each compiled here once per
host and loaded once per process by their module's ``load_kernel``.

The native backend is strictly optional: every capability it needs -- a C
compiler, numpy's bundled SVML ``atan2`` for the Original tier -- is probed
at runtime, and any missing piece downgrades the answer to "unavailable"
(the caller then stays on the NumPy path).  Nothing here is a hard
dependency and nothing raises during import.

Compiled artifacts are cached on disk, keyed by a digest of the source,
the compiler command line and the numpy version (the parity contract is
against a specific numpy's kernels).  A second process -- or a supervised
scoring child rebuilding its detectors after a crash -- reuses the cached
``.so`` without recompiling; concurrent builders race benignly via an
atomic rename.
"""

from __future__ import annotations

import ctypes
import getpass
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "BuildError",
    "cache_dir",
    "compile_hot_path",
    "find_compiler",
    "svml_atan2_address",
    "svml_atan2_supported",
]

#: Mandatory flags: gcc defaults to ``-ffp-contract=fast`` at ``-O2``,
#: which fuses multiply-adds and breaks bit parity with numpy.
_BASE_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: The SVML routine numpy's ``np.arctan2`` dispatches to on AVX-512 hosts.
#: The ``_ha`` (high-accuracy) variant is the one numpy calls; the plain
#: ``__svml_atan28`` is a different polynomial and does NOT match.
_SVML_ATAN2 = "__svml_atan28_ha"


class BuildError(RuntimeError):
    """The native scoring library could not be built or loaded."""


def find_compiler() -> str | None:
    """Locate a C compiler (``$CC``, then ``cc``, then ``gcc``)."""
    env = os.environ.get("CC")
    if env:
        return shutil.which(env)
    for name in ("cc", "gcc"):
        found = shutil.which(name)
        if found:
            return found
    return None


def cache_dir() -> Path:
    """Where compiled artifacts live (override: ``$REPRO_NATIVE_CACHE``)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        path = Path(override)
    else:
        try:
            user = getpass.getuser()
        except (KeyError, OSError):  # no passwd entry in minimal containers
            user = f"uid{os.getuid()}"
        path = Path(tempfile.gettempdir()) / f"repro-native-{user}"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    return path


def _artifact_key(source: str, compiler: str, flags: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    for part in (source, compiler, " ".join(flags), np.__version__):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:24]


def svml_atan2_supported() -> bool:
    """Whether this host can run the Original tier's SVML ``atan2``.

    Requires both the CPU feature set numpy's SVML dispatch keys on and
    the symbol itself in numpy's extension module (absent in non-x86 or
    differently-built numpys).
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    if not __cpu_features__.get("AVX512_SKX"):
        return False
    return svml_atan2_address() is not None


def svml_atan2_address() -> int | None:
    """Resolve ``__svml_atan28_ha`` from numpy's own extension module."""
    try:
        import numpy._core._multiarray_umath as umath

        lib = ctypes.CDLL(umath.__file__)
        fn = getattr(lib, _SVML_ATAN2)
        return ctypes.cast(fn, ctypes.c_void_p).value
    except (ImportError, AttributeError, OSError):
        return None


def compile_hot_path(
    source: str, name: str, flags: tuple[str, ...] = _BASE_FLAGS
) -> Path:
    """Compile C source to a cached shared object named ``name-<key>.so``.

    Returns the artifact path; raises :class:`BuildError` when no compiler
    is available or compilation fails.
    """
    compiler = find_compiler()
    if compiler is None:
        raise BuildError("no C compiler found (set $CC or install cc/gcc)")
    key = _artifact_key(source, compiler, flags)
    directory = cache_dir()
    artifact = directory / f"{name}-{key}.so"
    if artifact.exists():
        return artifact

    # Per-process source and staging paths: concurrent first builds (pool
    # workers on a fresh cache) must not rewrite a file another's compiler
    # is reading.
    c_path = directory / f"{name}-{key}.{os.getpid()}.c"
    staging = directory / f"{artifact.name}.tmp{os.getpid()}"
    cmd = [compiler, *flags, str(c_path), "-o", str(staging), "-lm"]
    try:
        c_path.write_text(source)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BuildError(
                f"native build failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
            )
        os.replace(staging, artifact)  # atomic: racing builders converge
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BuildError(f"native build failed: {exc}") from exc
    finally:
        for leftover in (c_path, staging):
            try:
                leftover.unlink(missing_ok=True)
            except OSError:
                pass
    return artifact
