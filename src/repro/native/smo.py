"""The SMO training loop of :class:`repro.ml.svm.SVC`, compiled.

``smo.c`` is a fixed (not generated) C port of the NumPy loop in
``SVC.fit`` that reproduces its fitted state bit for bit.  It is compiled
through the same content-keyed artifact cache as the scoring hot path and
bound with ctypes: there is one call per fit (plus one per block of random
draws), so binding overhead does not matter.

The port is exact only while its reduction matches numpy's strided
``ddot`` (see the contract at the top of ``smo.c``), which depends on the
BLAS numpy was built against.  :func:`load_kernel` therefore probes the
kernel's reduction against ``np.dot`` once per process; a mismatch, a
missing compiler or a failed build all make :func:`solve` return ``None``
and ``SVC.fit`` runs the NumPy loop instead.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from repro.native.build import BuildError, compile_hot_path

__all__ = ["SMOKernel", "load_kernel", "solve"]

SOURCE_PATH = Path(__file__).with_name("smo.c")

#: Second-multiplier indexes drawn per block.  The fit's generator is
#: private to the fit, so drawing past the last index used is harmless.
_DRAW_BLOCK = 8192

#: OpenBLAS splits ``ddot`` across threads above this length, and the
#: split depends on the thread count, so longer fits stay on NumPy.
_SERIAL_DDOT_MAX = 10000

#: Probe lengths for the reduction self-check: below, at and above one
#: group of four, every tail length, and one long vector.
_PROBE_LENGTHS = (1, 2, 3, 4, 5, 6, 7, 8, 13, 64, 801, 1003)

#: ``sift_smo_solve``'s status when a block of draws runs out.
_NEED_DRAWS = 1

_LONG = np.dtype(ctypes.c_long)

_dp = ctypes.POINTER(ctypes.c_double)
_lp = ctypes.POINTER(ctypes.c_long)


def _ptr(array: np.ndarray, kind):
    return array.ctypes.data_as(kind)


class SMOKernel:
    """The compiled ``smo.c``: the exported reduction and the solver."""

    def __init__(self, path: Path) -> None:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise BuildError(f"cannot load {path}: {exc}") from exc
        lib.sift_smo_dot.restype = ctypes.c_double
        lib.sift_smo_dot.argtypes = [_dp, _dp, ctypes.c_long, ctypes.c_long]
        lib.sift_smo_symmetric.restype = ctypes.c_long
        lib.sift_smo_symmetric.argtypes = [_dp, ctypes.c_long]
        lib.sift_smo_solve.restype = ctypes.c_long
        lib.sift_smo_solve.argtypes = [
            _dp, ctypes.c_long, ctypes.c_long, _dp, _dp, _dp,
            ctypes.c_double, ctypes.c_double, ctypes.c_long, ctypes.c_long,
            _lp, ctypes.c_long, _lp, _dp,
        ]
        self._lib = lib

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """The kernel's reduction of contiguous ``x`` against 1-D view ``y``."""
        step, rem = divmod(y.strides[0], y.itemsize)
        if not (
            x.dtype == y.dtype == np.float64
            and x.ndim == y.ndim == 1
            and x.size == y.size
            and x.flags.c_contiguous
            and rem == 0
            and step >= 1
        ):
            raise ValueError("dot needs contiguous x and a same-length float64 view y")
        return float(self._lib.sift_smo_dot(_ptr(x, _dp), _ptr(y, _dp), x.size, step))

    def symmetric(self, K: np.ndarray) -> bool:
        """Whether C-contiguous float64 ``K`` equals its transpose bit for bit."""
        return bool(self._lib.sift_smo_symmetric(_ptr(K, _dp), K.shape[0]))

    def solve(
        self,
        K: np.ndarray,
        y: np.ndarray,
        C: float,
        tol: float,
        max_passes: int,
        max_iter: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, float, int]:
        """Run SMO on a C-contiguous float64 Gram matrix ``K``, in place.

        Returns ``(alpha, b, iterations)`` exactly as the NumPy loop would.
        """
        n = y.size
        y = np.ascontiguousarray(y, dtype=np.float64)
        alpha = np.zeros(n)
        scratch = np.empty(n)
        state = np.zeros(4, dtype=_LONG)
        b = np.zeros(1)
        symmetric = self.symmetric(K)
        status = _NEED_DRAWS
        while status == _NEED_DRAWS:
            draws = rng.integers(n - 1, size=_DRAW_BLOCK).astype(_LONG, copy=False)
            status = self._lib.sift_smo_solve(
                _ptr(K, _dp), n, int(symmetric), _ptr(y, _dp),
                _ptr(alpha, _dp), _ptr(scratch, _dp),
                C, tol, max_passes, max_iter,
                _ptr(draws, _lp), draws.size, _ptr(state, _lp), _ptr(b, _dp),
            )
        return alpha, float(b[0]), int(state[0])


def _reduction_matches(kernel: SMOKernel) -> bool:
    """Whether the kernel's reduction bit-matches ``np.dot`` on strided probes.

    The operands span many orders of magnitude, so any change in summation
    order or fusion shows up as a different rounding.
    """
    rng = np.random.default_rng(20170605)
    for n in _PROBE_LENGTHS:
        for stride in (2, 3):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
            base = rng.standard_normal(n * stride) * 10.0 ** rng.integers(-6, 7, n * stride)
            column = base[::stride]
            if np.float64(kernel.dot(x, column)).tobytes() != np.dot(x, column).tobytes():
                return False
    return True


@functools.cache
def load_kernel() -> SMOKernel | None:
    """The compiled, self-checked kernel, or ``None`` (once per process)."""
    if _LONG.itemsize != 8:
        return None
    try:
        kernel = SMOKernel(compile_hot_path(SOURCE_PATH.read_text(), "smo"))
    except (BuildError, OSError):
        return None
    return kernel if _reduction_matches(kernel) else None


def solve(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float,
    max_passes: int,
    max_iter: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, int] | None:
    """SMO in C when eligible, else ``None`` (the caller runs the NumPy loop).

    Eligible means a compiled, self-checked kernel and a C-contiguous
    float64 ``K`` short enough for a single-threaded ``ddot``: ``K`` is
    read in place, never copied.
    """
    n = y.size
    if not (
        K.dtype == np.float64
        and K.shape == (n, n)
        and K.flags.c_contiguous
        and 2 <= n <= _SERIAL_DDOT_MAX
    ):
        return None
    kernel = load_kernel()
    if kernel is None:
        return None
    return kernel.solve(K, y, C, tol, max_passes, max_iter, rng)
