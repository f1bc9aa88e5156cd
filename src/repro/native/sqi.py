"""The per-window statistics of the SQI gate, compiled.

``sqi.c`` is a fixed (not generated) C kernel that computes, for both
channels of a window in one call, the six statistics
:meth:`repro.signals.quality.SignalQualityIndex._channel_scores` gets
from NumPy: min, max, the pinned-sample count, a NaN flag over the
first-difference energy, and the energy's median and 98th percentile.
Each is bit-identical to NumPy's, in the samples' own dtype (float32 or
float64); ``tests/signals/test_quality.py`` compares both paths with the
per-channel oracle.

It is compiled through the same content-keyed artifact cache as the
scoring hot path and bound with ctypes.  A gate loads it once, when the
gate is built: the first load in a process may run the compiler, which
must not happen on a serving loop.  A missing compiler or a failed build
makes :func:`load_kernel` return ``None`` and the gate stays on NumPy.

The kernel does float32 arithmetic on float32 windows, which is what its
parity needs and what the native C contract (``--c-profile native``)
bans for the scoring kernel, so ``sqi.c`` is not checked against it.
"""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path

import numpy as np

from repro.native.build import BuildError, compile_hot_path

__all__ = ["STATS", "SQIKernel", "energy_ranks", "load_kernel"]

SOURCE_PATH = Path(__file__).with_name("sqi.c")

#: ``-O3`` vectorizes the sample passes; no flag here changes rounding.
_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

#: Statistics per channel in the kernel's output, in order: min, max,
#: pinned count, energy-NaN flag, median, 98th percentile.
STATS = 6

_Output = ctypes.c_double * (2 * STATS)


@functools.lru_cache(maxsize=64)
def energy_ranks(n: int) -> tuple[int, int, int, int, float]:
    """Where the energy statistics of an ``n``-sample window sit (``n >= 2``).

    The window has ``m = n - 1`` first-difference energies.  Returns
    ``(low_half, half, below, above, gamma)``: ``np.median`` takes rank
    ``half``, or the mean of ranks ``low_half`` and ``half`` when ``m``
    is even; ``np.percentile``'s linear method lerps from rank ``below``
    to rank ``above`` with weight ``gamma``.  For ``m == 1`` both are
    the one value, the same lerp between that value and itself.  Both
    paths of the gate select at these ranks.
    """
    m = n - 1
    half = m // 2
    low_half = half if m % 2 else half - 1
    position = (m - 1) * 0.98
    below = math.floor(position)
    return low_half, half, below, min(below + 1, m - 1), position - below


class SQIKernel:
    """The compiled ``sqi.c``: one entry point per sample dtype."""

    def __init__(self, path: Path) -> None:
        # PyDLL holds the GIL through the call: for a few microseconds of
        # work, releasing it would cost more, and a serving loop would
        # then wait for another thread to hand it back.
        try:
            lib = ctypes.PyDLL(str(path))
        except OSError as exc:
            raise BuildError(f"cannot load {path}: {exc}") from exc
        n, ptr = ctypes.c_long, ctypes.c_void_p
        entries = {}
        for dtype, name in ((np.float32, "sift_sqi_f32"), (np.float64, "sift_sqi_f64")):
            entry = getattr(lib, name)
            entry.restype = n
            entry.argtypes = [ptr, ptr, n, n, n, n, n, ctypes.c_double, _Output]
            entries[np.dtype(dtype)] = entry
        self._lib = lib
        self._entries = entries

    def stats(self, ecg: np.ndarray, abp: np.ndarray) -> list[float] | None:
        """Both channels' statistics, ECG's ``STATS`` then ABP's.

        Returns ``None`` -- the caller runs NumPy --
        unless both channels are 1-D, C-contiguous, of one float dtype,
        and hold the same number (at least 2) of samples.
        """
        entry = self._entries.get(ecg.dtype)
        n = ecg.size
        if (
            entry is None
            or abp.dtype != ecg.dtype
            or ecg.ndim != 1
            or abp.shape != ecg.shape
            or n < 2
            or not (ecg.flags.c_contiguous and abp.flags.c_contiguous)
        ):
            return None
        out = _Output()
        if entry(ecg.ctypes.data, abp.ctypes.data, n, *energy_ranks(n), out):
            return None  # working memory could not be allocated
        return out[:]


@functools.cache
def load_kernel() -> SQIKernel | None:
    """The compiled kernel, or ``None`` without a working compiler.

    Built at most once per process (and once per host, through the
    artifact cache); call it where the gate is built, not per window.
    """
    try:
        return SQIKernel(compile_hot_path(SOURCE_PATH.read_text(), "sqi", _FLAGS))
    except (BuildError, OSError):
        return None
