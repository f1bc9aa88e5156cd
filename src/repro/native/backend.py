"""The ``platform="native"`` scoring backend.

``score.c`` is a fixed C kernel that scores windows for any fitted linear
model: the tier, grid size, weights and standardizer statistics are
arguments of its one entry point, so one library -- compiled once per
host through the artifact cache of :mod:`repro.native.build`, loaded
once per process by :func:`load_kernel` -- serves every wearer's models,
and a forked scoring child inherits it already loaded.

A :class:`NativeScorer` holds one fitted model's constants and enforces
the parity contract at three levels:

1. **Self-check.**  Before the first real batch, deterministic probe
   windows (including a flat-lined window and a peakless window) are
   scored both natively and through the NumPy reference pipeline; any bit
   difference marks the backend unusable and the caller falls back.
2. **Eligibility gating.**  The C kernel assumes finite samples and
   in-range peak indexes (NumPy propagates NaN through ``np.min`` and
   raises on bad indexes).  Windows that violate the preconditions are
   routed to the NumPy path window-by-window; batch-size invariance of the
   reference pipeline keeps the merged result bit-identical.
3. **Uniform-length batching.**  The C entry point scores equal-length
   windows; ragged streams are scored per length group and scattered back
   in order -- again bit-identical because scoring is per-window.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.features.batched import group_by_length
from repro.core.portrait import stream_positions
from repro.core.versions import DetectorVersion, make_extractor
from repro.native.build import (
    BuildError,
    compile_hot_path,
    find_compiler,
    svml_atan2_address,
    svml_atan2_supported,
)
from repro.signals.dataset import SignalWindow

__all__ = [
    "NativeScorer",
    "NativeUnavailableError",
    "ScoreKernel",
    "load_kernel",
    "native_status",
]

SOURCE_PATH = Path(__file__).with_name("score.c")

_LONG = np.dtype(ctypes.c_long)

#: Default physiological pairing lag, mirroring ``build_portrait_batch``.
_MAX_LAG_S = 0.6

#: ``score.c``'s tier codes.
_TIER_CODES = {
    DetectorVersion.ORIGINAL: 0,
    DetectorVersion.SIMPLIFIED: 1,
    DetectorVersion.REDUCED: 2,
}


class NativeUnavailableError(RuntimeError):
    """The native backend cannot be used on this host / for this model."""


def native_status(version: DetectorVersion | str) -> tuple[bool, str]:
    """Cheap host-capability probe: ``(available, reason)``.

    Does not compile anything; :class:`NativeScorer` may still fail later
    (e.g. a broken toolchain), which downgrades to a fallback at that
    point.
    """
    if isinstance(version, str):
        version = DetectorVersion.from_name(version)
    if _LONG.itemsize != 8:
        return False, "native backend requires a 64-bit long (LP64 host)"
    if find_compiler() is None:
        return False, "no C compiler found (set $CC or install cc/gcc)"
    if version is DetectorVersion.ORIGINAL and not svml_atan2_supported():
        return False, (
            "Original tier needs numpy's SVML atan2 (AVX-512 host with an "
            "SVML-enabled numpy build)"
        )
    return True, "ok"


class ScoreKernel:
    """The compiled ``score.c``, bound with ctypes."""

    def __init__(self, path: Path) -> None:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise BuildError(f"cannot load {path}: {exc}") from exc
        ptr, n = ctypes.c_void_p, ctypes.c_long
        self._score = lib.sift_score_windows
        self._score.restype = n
        self._score.argtypes = [
            n, n, ptr, ptr, ptr, ctypes.c_double, ptr,
            ptr, ptr, n, n, ptr, ptr, ptr, ptr, ptr, ptr,
        ]
        self._lib = lib

    def score_windows(
        self,
        model: tuple,
        ecg: np.ndarray,
        abp: np.ndarray,
        r_idx: np.ndarray,
        r_off: np.ndarray,
        s_idx: np.ndarray,
        s_off: np.ndarray,
        max_lag: np.ndarray,
    ) -> np.ndarray:
        """Score a uniform-length batch; arrays must be C-contiguous.

        ``model`` holds the entry point's leading arguments: tier code,
        grid size, the coef/mean/scale addresses, the intercept and the
        atan2 address (``None`` but for the Original tier).
        """
        out = np.empty(ecg.shape[0], dtype=np.float64)
        status = self._score(
            *model,
            ecg.ctypes.data, abp.ctypes.data, ecg.shape[0], ecg.shape[1],
            r_idx.ctypes.data, r_off.ctypes.data,
            s_idx.ctypes.data, s_off.ctypes.data,
            max_lag.ctypes.data, out.ctypes.data,
        )
        if status != 0:
            raise BuildError(f"sift_score_windows failed with status {status}")
        return out


@functools.cache
def load_kernel() -> ScoreKernel:
    """The compiled scoring kernel; raises :class:`BuildError` without one.

    Built at most once per host (the artifact cache) and loaded at most
    once per process; a failure is not cached, so a later call retries.
    """
    try:
        source = SOURCE_PATH.read_text()
    except OSError as exc:
        raise BuildError(f"cannot read {SOURCE_PATH}: {exc}") from exc
    return ScoreKernel(compile_hot_path(source, "score"))


def _probe_windows(version: DetectorVersion, window_s: float) -> list[SignalWindow]:
    """Deterministic windows exercising the hot path's edge cases."""
    rate = 125.0
    n = max(8, int(round(window_s * rate)))
    rng = np.random.default_rng(20170605)
    t = np.arange(n) / rate

    def window(ecg, abp, r, s):
        return SignalWindow(
            ecg=np.asarray(ecg, dtype=np.float64),
            abp=np.asarray(abp, dtype=np.float64),
            r_peaks=np.asarray(r, dtype=np.intp),
            systolic_peaks=np.asarray(s, dtype=np.intp),
            sample_rate=rate,
        )

    ecg = np.sin(2.0 * np.pi * 1.1 * t) + 0.05 * rng.standard_normal(n)
    abp = 80.0 + 30.0 * np.sin(2.0 * np.pi * 1.1 * t - 0.9)
    r = np.arange(5, n - 1, max(8, n // 4))
    s = np.minimum(r + max(2, n // 16), n - 1)
    windows = [
        window(ecg, abp, r, s),  # typical: peaks, pairs within the lag
        window(np.full(n, 1.0), np.full(n, 7.5), [], []),  # flat, peakless
        window(rng.standard_normal(n), rng.standard_normal(n), [0, n - 1], [1]),
        window(-ecg, abp[::-1].copy(), r[:1], []),  # pairs impossible
    ]
    return windows


def _reference_scores(
    version: DetectorVersion,
    grid_n: int,
    coef: np.ndarray,
    intercept: float,
    mean: np.ndarray,
    scale: np.ndarray,
    windows: Sequence[SignalWindow],
) -> np.ndarray:
    """The NumPy reference pipeline over explicit model constants."""
    extractor = make_extractor(version, grid_n=grid_n)
    features = extractor.extract_stream(list(windows))
    if features.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    standardized = (features - mean) / scale
    return np.einsum("ij,j->i", standardized, coef) + intercept


class NativeScorer:
    """Native scoring for one fitted linear model.

    Parameters are the fitted model's constants; ``fallback`` is invoked
    with a list of windows whenever some of them are ineligible for the C
    path (non-finite samples, out-of-range peak indexes) and must return
    the NumPy-path scores for exactly those windows.
    """

    def __init__(
        self,
        version: DetectorVersion | str,
        grid_n: int,
        coef: np.ndarray,
        intercept: float,
        mean: np.ndarray,
        scale: np.ndarray,
        window_s: float = 3.0,
        fallback: Callable[[list[SignalWindow]], np.ndarray] | None = None,
    ) -> None:
        if isinstance(version, str):
            version = DetectorVersion.from_name(version)
        available, reason = native_status(version)
        if not available:
            raise NativeUnavailableError(reason)
        self.version = version
        self.grid_n = int(grid_n)
        self.coef = np.ascontiguousarray(coef, dtype=np.float64).reshape(-1)
        self.intercept = float(intercept)
        self.mean = np.ascontiguousarray(mean, dtype=np.float64).reshape(-1)
        self.scale = np.ascontiguousarray(scale, dtype=np.float64).reshape(-1)
        # The kernel reads n_features of each; a shorter array that NumPy
        # would broadcast must not reach it.
        for name in ("coef", "mean", "scale"):
            shape = getattr(self, name).shape
            if shape != (version.n_features,):
                raise ValueError(
                    f"{name} has shape {shape}, expected "
                    f"({version.n_features},) for the {version.value} version"
                )
        self._fallback = fallback
        # sift_score_windows's model arguments; the arrays above keep the
        # addresses alive, and native_status vouched for the atan2 symbol.
        original = version is DetectorVersion.ORIGINAL
        self._model = (
            _TIER_CODES[version], self.grid_n,
            self.coef.ctypes.data, self.mean.ctypes.data,
            self.scale.ctypes.data, self.intercept,
            svml_atan2_address() if original else None,
        )
        try:
            self._kernel = load_kernel()
        except BuildError as exc:
            raise NativeUnavailableError(str(exc)) from exc
        self._self_check(window_s)

    # ------------------------------------------------------------------
    # Parity self-check
    # ------------------------------------------------------------------

    def _self_check(self, window_s: float) -> None:
        windows = _probe_windows(self.version, window_s)
        reference = _reference_scores(
            self.version,
            self.grid_n,
            self.coef,
            self.intercept,
            self.mean,
            self.scale,
            windows,
        )
        native = self._score_uniform(windows)
        if native.shape != reference.shape or not np.array_equal(
            native, reference
        ):
            raise NativeUnavailableError(
                "native self-check failed: the C kernel does not "
                "bit-match the NumPy reference on probe windows "
                f"(max diff {np.max(np.abs(native - reference)):.3e})"
            )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    @staticmethod
    def _eligible(window: SignalWindow) -> bool:
        n = window.n_samples
        if n < 1 or window.sample_rate <= 0:
            return False
        if not (
            np.all(np.isfinite(window.ecg)) and np.all(np.isfinite(window.abp))
        ):
            return False
        for peaks in (window.r_peaks, window.systolic_peaks):
            peaks = np.asarray(peaks)
            if peaks.size > n or (
                peaks.size and (peaks.min() < 0 or peaks.max() >= n)
            ):
                return False
        return True

    @staticmethod
    def _pack(
        windows: Sequence[SignalWindow],
    ) -> tuple[np.ndarray, ...]:
        """Marshal equal-length windows into the C entry point's layout."""
        n_windows = len(windows)
        n_samples = windows[0].n_samples
        ecg = np.empty((n_windows, n_samples), dtype=np.float64)
        abp = np.empty((n_windows, n_samples), dtype=np.float64)
        r_off = np.zeros(n_windows + 1, dtype=_LONG)
        s_off = np.zeros(n_windows + 1, dtype=_LONG)
        max_lag = np.empty(n_windows, dtype=_LONG)
        r_parts: list[np.ndarray] = []
        s_parts: list[np.ndarray] = []
        for i, window in enumerate(windows):
            ecg[i] = window.ecg
            abp[i] = window.abp
            r = np.ascontiguousarray(window.r_peaks, dtype=_LONG)
            s = np.ascontiguousarray(window.systolic_peaks, dtype=_LONG)
            r_parts.append(r)
            s_parts.append(s)
            r_off[i + 1] = r_off[i] + r.size
            s_off[i + 1] = s_off[i] + s.size
            max_lag[i] = int(_MAX_LAG_S * window.sample_rate)
        r_idx = (
            np.concatenate(r_parts) if r_parts else np.empty(0, dtype=_LONG)
        ).astype(_LONG, copy=False)
        s_idx = (
            np.concatenate(s_parts) if s_parts else np.empty(0, dtype=_LONG)
        ).astype(_LONG, copy=False)
        return ecg, abp, r_idx, r_off, s_idx, s_off, max_lag

    @staticmethod
    def _packed_eligible(packed: tuple[np.ndarray, ...]) -> bool:
        """Whole-batch precondition check over the packed arrays.

        One reduction per array instead of several per window; this is the
        common-case fast path -- when it fails, the caller re-checks
        window by window to isolate the offenders.
        """
        ecg, abp, r_idx, r_off, s_idx, s_off, max_lag = packed
        n_samples = ecg.shape[1]
        if n_samples < 1 or not bool(np.all(max_lag >= 0)):
            return False
        if not (np.isfinite(ecg).all() and np.isfinite(abp).all()):
            return False
        for idx, off in ((r_idx, r_off), (s_idx, s_off)):
            # No window lists more peaks than samples (the kernel's
            # per-peak scratch); the total bounds them all in one test.
            if idx.size > n_samples and np.diff(off).max() > n_samples:
                return False
            if idx.size and (idx.min() < 0 or idx.max() >= n_samples):
                return False
        return True

    def _score_uniform(self, windows: Sequence[SignalWindow]) -> np.ndarray:
        """Score equal-length, eligible windows through the C entry point."""
        return self._kernel.score_windows(self._model, *self._pack(windows))

    def _score_group(
        self,
        windows: list[SignalWindow],
        indices: list[int],
        out: np.ndarray,
    ) -> None:
        """Score one equal-length group, isolating ineligible windows."""
        packed = self._pack(windows)
        if self._packed_eligible(packed):
            out[indices] = self._kernel.score_windows(self._model, *packed)
            return
        ok_pos: list[int] = []
        bad_pos: list[int] = []
        for k, window in enumerate(windows):
            (ok_pos if self._eligible(window) else bad_pos).append(k)
        if bad_pos:
            if self._fallback is None:
                raise NativeUnavailableError(
                    f"{len(bad_pos)} window(s) are ineligible for the "
                    "native path and no fallback scorer is configured"
                )
            bad_indices = [indices[k] for k in bad_pos]
            with stream_positions(bad_indices):
                out[bad_indices] = self._fallback([windows[k] for k in bad_pos])
        if ok_pos:
            out[[indices[k] for k in ok_pos]] = self._score_uniform(
                [windows[k] for k in ok_pos]
            )

    def decision_values(self, windows: Sequence[SignalWindow]) -> np.ndarray:
        """Decision values for a window list, bit-identical to NumPy.

        Groups windows by length, routes ineligible windows to the
        fallback, and reassembles scores in input order.
        """
        windows = list(windows)
        if not windows:
            return np.empty(0, dtype=np.float64)
        out = np.empty(len(windows), dtype=np.float64)
        for n_samples, indices in group_by_length(windows).items():
            group = [windows[i] for i in indices]
            if n_samples < 1:
                if self._fallback is None:
                    raise NativeUnavailableError(
                        "empty windows are ineligible for the native path "
                        "and no fallback scorer is configured"
                    )
                out[indices] = self._fallback(group)
                continue
            self._score_group(group, indices, out)
        return out
