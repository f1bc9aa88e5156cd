"""Support vector classification via Sequential Minimal Optimization.

A from-scratch soft-margin SVM solver (Platt's SMO with the standard
pair-selection heuristics of the simplified variant).  Problem sizes in
this project are small -- a few hundred 8-dimensional feature points per
user model -- so the O(n^2) kernel matrix is precomputed.

Labels are ``{-1, +1}``; the convenience wrapper also accepts ``{0, 1}``
and boolean arrays (``True`` = positive = "altered window").
"""

from __future__ import annotations

import numpy as np

from repro.ml.kernels import Kernel, LinearKernel

__all__ = ["SVC"]


def _canonical_labels(y: np.ndarray) -> np.ndarray:
    """Map {0,1} / bool / {-1,+1} labels onto {-1.0, +1.0}."""
    y = np.asarray(y)
    if y.dtype == bool:
        return np.where(y, 1.0, -1.0)
    values = np.unique(y)
    if np.array_equal(values, [0, 1]) or np.array_equal(values, [0]) or np.array_equal(values, [1]):
        return np.where(y > 0, 1.0, -1.0)
    if not np.all(np.isin(values, (-1, 1))):
        raise ValueError(f"labels must be binary, got values {values}")
    return y.astype(np.float64)


def _smo_numpy(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float,
    max_passes: int,
    max_iter: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, int]:
    """The SMO loop in NumPy: ``(alpha, b, iterations)``.

    The fallback when the native kernel is unavailable, and the reference
    the kernel (``repro/native/smo.c``) reproduces bit for bit.
    """
    n = y.size
    alpha = np.zeros(n)
    b = 0.0

    def decision(i: int) -> float:
        return float(np.dot(alpha * y, K[:, i]) + b)

    passes = 0
    iteration = 0
    while passes < max_passes and iteration < max_iter:
        changed = 0
        for i in range(n):
            e_i = decision(i) - y[i]
            violates = (y[i] * e_i < -tol and alpha[i] < C) or (
                y[i] * e_i > tol and alpha[i] > 0
            )
            if not violates:
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            e_j = decision(j) - y[j]

            alpha_i_old, alpha_j_old = alpha[i], alpha[j]
            if y[i] != y[j]:
                low = max(0.0, alpha[j] - alpha[i])
                high = min(C, C + alpha[j] - alpha[i])
            else:
                low = max(0.0, alpha[i] + alpha[j] - C)
                high = min(C, alpha[i] + alpha[j])
            if high - low < 1e-12:
                continue
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if eta >= 0:
                continue
            alpha[j] = np.clip(alpha[j] - y[j] * (e_i - e_j) / eta, low, high)
            if abs(alpha[j] - alpha_j_old) < 1e-7:
                continue
            alpha[i] += y[i] * y[j] * (alpha_j_old - alpha[j])

            b1 = (
                b
                - e_i
                - y[i] * (alpha[i] - alpha_i_old) * K[i, i]
                - y[j] * (alpha[j] - alpha_j_old) * K[i, j]
            )
            b2 = (
                b
                - e_j
                - y[i] * (alpha[i] - alpha_i_old) * K[i, j]
                - y[j] * (alpha[j] - alpha_j_old) * K[j, j]
            )
            if 0 < alpha[i] < C:
                b = b1
            elif 0 < alpha[j] < C:
                b = b2
            else:
                b = 0.5 * (b1 + b2)
            changed += 1
        passes = passes + 1 if changed == 0 else 0
        iteration += 1
    return alpha, float(b), iteration


class SVC:
    """Soft-margin kernel SVM trained with SMO.

    Parameters
    ----------
    C:
        Soft-margin penalty.
    kernel:
        A :class:`~repro.ml.kernels.Kernel`; defaults to linear, matching
        the paper's deployed model.
    tol:
        KKT violation tolerance.
    max_passes:
        Number of consecutive full passes without any multiplier update
        required before declaring convergence.
    max_iter:
        Hard cap on full passes over the data.
    seed:
        Seed for the internal pair-selection RNG (SMO picks the second
        multiplier randomly when no heuristic candidate works).
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: Kernel | None = None,
        tol: float = 1e-3,
        max_passes: int = 5,
        max_iter: int = 200,
        seed: int = 0,
    ) -> None:
        self.C = float(C)
        self.kernel = kernel or LinearKernel()
        self.tol = float(tol)
        self.max_passes = int(max_passes)
        self.max_iter = int(max_iter)
        self.seed = int(seed)
        self._check_params()
        # Fitted state
        self.support_vectors_: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None  # alpha_i * y_i at SVs
        self.intercept_: float = 0.0
        self.coef_: np.ndarray | None = None  # primal w for linear kernels
        self.n_iter_: int = 0
        self.solver_: str | None = None  # "native" or "numpy"

    def _check_params(self) -> None:
        """Reject settings that would silently train an all-zero model."""
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVC":
        """Train with SMO on labels in {-1,+1} / {0,1} / bool.

        The SMO loop runs in the native core when a compiler is available
        (:mod:`repro.native.smo`, bit-identical to :func:`_smo_numpy`);
        ``solver_`` records which one ran.
        """
        self._check_params()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D (n_samples, n_features)")
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"X contains NaN or inf (first at row {row})")
        y = _canonical_labels(y)
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one label per row of X")
        if np.unique(y).size < 2:
            raise ValueError("training data must contain both classes")

        from repro.native.smo import solve

        K = self.kernel(X, X)
        params = (self.C, self.tol, self.max_passes, self.max_iter)
        rng = np.random.default_rng(self.seed)
        solved = solve(K, y, *params, rng)
        if solved is None:
            solved = _smo_numpy(K, y, *params, rng)
            self.solver_ = "numpy"
        else:
            self.solver_ = "native"
        alpha, b, self.n_iter_ = solved

        support = alpha > 1e-8
        self.support_vectors_ = X[support]
        self.dual_coef_ = (alpha * y)[support]
        self.intercept_ = float(b)
        if isinstance(self.kernel, LinearKernel):
            self.coef_ = self.dual_coef_ @ self.support_vectors_
        else:
            self.coef_ = None
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distance-like score; positive means the positive class.

        Scoring is *batch-size invariant*: each row's score is computed
        with the same reduction regardless of how many rows are scored at
        once (``np.einsum`` rather than BLAS, whose kernel choice -- and
        hence rounding -- depends on the matrix shape).  This is what lets
        ``SIFTDetector.decision_values`` score a whole stream in one pass
        and still agree bit-for-bit with scoring one window at a time.
        """
        if self.support_vectors_ is None or self.dual_coef_ is None:
            raise RuntimeError("SVC is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.coef_ is not None:
            return np.einsum("ij,j->i", X, self.coef_) + self.intercept_
        return (
            np.einsum(
                "ij,j->i", self.kernel(X, self.support_vectors_), self.dual_coef_
            )
            + self.intercept_
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels in {-1, +1}."""
        return np.where(self.decision_function(X) >= 0.0, 1, -1)

    def predict_bool(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels as booleans (``True`` = positive = altered)."""
        return self.decision_function(X) >= 0.0
