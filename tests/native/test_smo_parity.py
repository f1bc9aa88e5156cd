"""Bit-parity of the native SMO training kernel against the NumPy loop.

``SVC.fit`` runs its SMO loop in C (``repro/native/smo.c``) when the host
can build it, and the NumPy loop otherwise.  The contract is the fitted
state, byte for byte: ``intercept_``, ``dual_coef_``,
``support_vectors_``, ``coef_`` and ``n_iter_`` compare on ``tobytes()``.
The NumPy side is forced by making :func:`repro.native.smo.load_kernel`
report no kernel, which is exactly what a host without a compiler sees.

Skips when the host cannot build the kernel; the fallback tests at the
bottom run everywhere.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.c_checker import check_c_source
from repro.core.detector import SIFTDetector
from repro.core.training import build_training_set
from repro.core.versions import DetectorVersion
from repro.experiments import ExperimentConfig, make_dataset
from repro.experiments.pipeline import cohort_record_specs, realize_record
from repro.ml.kernels import LinearKernel, RBFKernel
from repro.ml.svm import SVC, _smo_numpy
from repro.native import smo


@pytest.fixture(scope="module")
def kernel():
    loaded = smo.load_kernel()
    if loaded is None:
        pytest.skip("native SMO kernel unavailable on this host")
    return loaded


@pytest.fixture
def fresh_load():
    """Forget the per-process kernel before and after the test."""
    smo.load_kernel.cache_clear()
    yield
    smo.load_kernel.cache_clear()


def _fit_numpy(params: dict, X: np.ndarray, y: np.ndarray) -> SVC:
    with mock.patch.object(smo, "load_kernel", lambda: None):
        model = SVC(**params).fit(X, y)
    assert model.solver_ == "numpy"
    return model


def _fitted_bytes(model: SVC) -> tuple:
    coef = None if model.coef_ is None else model.coef_.tobytes()
    return (
        np.float64(model.intercept_).tobytes(),
        model.dual_coef_.tobytes(),
        model.support_vectors_.tobytes(),
        coef,
        model.n_iter_,
    )


def _assert_parity(params: dict, X: np.ndarray, y: np.ndarray) -> SVC:
    native = SVC(**params).fit(X, y)
    assert native.solver_ == "native"
    assert _fitted_bytes(native) == _fitted_bytes(_fit_numpy(params, X, y))
    return native


def _problem(seed: int, n: int, d: int, spread: float, overlap: float, duplicates: int):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    X = rng.standard_normal((n, d)) * 10.0**spread
    X += (1.0 - overlap) * 2.0 * 10.0**spread * y[:, None]
    if duplicates:
        rows = rng.integers(0, n, (2, duplicates))
        X[rows[1]] = X[rows[0]]
    return X, y


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 240),
    d=st.integers(1, 8),
    spread=st.sampled_from([-2.0, 0.0, 1.0, 3.0]),
    overlap=st.sampled_from([0.0, 0.5, 1.0]),
    duplicates=st.sampled_from([0, 1, 20]),
    kernel_name=st.sampled_from(["linear", "rbf"]),
    C=st.sampled_from([0.01, 0.3, 1.0, 10.0]),
    tol=st.sampled_from([1e-4, 1e-3, 1e-2]),
    max_iter=st.sampled_from([1, 2, 7, 200]),
    max_passes=st.sampled_from([1, 5]),
)
@settings(max_examples=60, deadline=None)
def test_native_fit_is_bit_identical(
    kernel, seed, n, d, spread, overlap, duplicates, kernel_name, C, tol, max_iter,
    max_passes,
):
    X, y = _problem(seed, n, d, spread, overlap, duplicates)
    params = dict(
        C=C,
        kernel=LinearKernel() if kernel_name == "linear" else RBFKernel(0.5),
        tol=tol,
        max_iter=max_iter,
        max_passes=max_passes,
        seed=seed % 1000,
    )
    _assert_parity(params, X, y)


def test_converged_and_capped_runs(kernel):
    X, y = _problem(3, 120, 4, 0.0, 0.0, 0)
    converged = _assert_parity(dict(C=1.0), X, y)
    assert converged.n_iter_ < 200
    X, y = _problem(3, 160, 4, 0.0, 1.0, 0)
    capped = _assert_parity(dict(C=1.0, max_iter=30), X, y)
    assert capped.n_iter_ == 30


def test_tail_lengths(kernel):
    """Every ``n % 4`` exercises the fused-tail part of the reduction."""
    for n in (2, 3, 5, 6, 7, 9, 41, 42, 43):
        X, y = _problem(n, n, 3, 0.0, 0.5, 0)
        _assert_parity(dict(C=1.0, max_iter=50), X, y)
        _assert_parity(dict(C=1.0, kernel=RBFKernel(0.2), max_iter=50), X, y)


def test_non_contiguous_features(kernel):
    X, y = _problem(11, 90, 8, 0.0, 0.5, 0)
    _assert_parity(dict(C=1.0, max_iter=50), X[:, ::2], y)


def test_symmetry_check_compares_bits(kernel):
    """Column i is read as row i only when every mirrored pair has equal bits."""
    X, _ = _problem(4, 97, 8, 1.0, 0.5, 10)
    K = LinearKernel()(X, X)
    assert kernel.symmetric(K)
    K[3, 5] = np.nextafter(K[5, 3], np.inf)
    assert not kernel.symmetric(K)
    K[3, 5] = K[5, 3]
    K[96, 0] = K[0, 96] = 0.0
    assert kernel.symmetric(K)
    K[96, 0] = -0.0  # equal as numbers, not as bits
    assert not kernel.symmetric(K)


def test_asymmetric_gram_matrix_reads_columns(kernel):
    """A K that is not its own transpose must still match the column reads."""
    X, y = _problem(8, 83, 4, 0.0, 0.5, 0)
    K = LinearKernel()(X, X)
    K += 1e-3 * np.random.default_rng(8).standard_normal(K.shape)
    assert not kernel.symmetric(K)
    args = (y, 1.0, 1e-3, 5, 40)
    native = smo.solve(K, *args, np.random.default_rng(2))
    reference = _smo_numpy(K, *args, np.random.default_rng(2))
    assert native[0].tobytes() == reference[0].tobytes()
    assert native[1:] == reference[1:]


def test_real_table2_training_set(kernel):
    """One subject's Simplified-tier training set from the Table II protocol."""
    config = ExperimentConfig()
    dataset = make_dataset(config)
    subject = dataset.subjects[0]
    specs = cohort_record_specs(config, dataset, [0]).values()
    records = [
        (s, realize_record(dataset, s, duration, purpose, config))
        for s, duration, purpose in specs
        if purpose == "train"
    ]
    training = next(r for s, r in records if s is subject)
    donors = [r for s, r in records if s is not subject]
    detector = SIFTDetector(
        version=DetectorVersion.SIMPLIFIED,
        window_s=config.window_s,
        grid_n=config.grid_n,
        C=config.svm_c,
        kernel=config.kernel,
        gamma=config.svm_gamma,
    )
    training_set = build_training_set(
        detector.extractor,
        training,
        donors,
        window_s=config.window_s,
        stride_s=config.train_stride_s,
        rng=np.random.default_rng([config.seed, 0, 99]),
    )
    X = detector.scaler.fit_transform(training_set.X)
    assert X.shape == (800, 8)
    _assert_parity(dict(C=config.svm_c), X, training_set.y)


def test_fit_reads_gram_matrix_in_place(kernel):
    """Peak traced memory stays below two n x n float64 matrices."""
    X, y = _problem(5, 600, 8, 0.0, 0.5, 0)
    SVC(max_iter=1).fit(X, y)  # warm the loaded kernel
    tracemalloc.start()
    try:
        model = SVC(max_iter=3).fit(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.solver_ == "native"
    gram_bytes = 600 * 600 * 8
    assert gram_bytes <= peak < 1.5 * gram_bytes


def test_scalar_and_bulk_integer_draws_share_a_stream():
    """The kernel takes draws in blocks; the NumPy loop takes them one by one."""
    for high in (1, 2, 3, 7, 799, 1599):
        scalar = np.random.default_rng(7)
        bulk = np.random.default_rng(7)
        one_by_one = [int(scalar.integers(high)) for _ in range(700)]
        blocks = np.concatenate([bulk.integers(high, size=k) for k in (1, 299, 400)])
        assert one_by_one == blocks.tolist()


def test_np_clip_ties_keep_x():
    """smo.c's np_clip copies this rule; signed zeros are where it shows."""
    for x, low, high in ((-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (-0.0, -1.0, 0.0), (0.0, -1.0, -0.0)):
        for bound in (float, np.float64):
            clipped = np.clip(np.float64(x), bound(low), bound(high))
            assert np.float64(clipped).tobytes() == np.float64(x).tobytes()


def test_kernel_reduction_matches_numpy_dot(kernel):
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 800, 803):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        column = (rng.standard_normal(4 * n) * 10.0 ** rng.integers(-8, 9, 4 * n))[::4]
        assert np.float64(kernel.dot(x, column)).tobytes() == np.dot(x, column).tobytes()


def test_kernel_source_passes_native_c_contract():
    assert check_c_source(smo.SOURCE_PATH.read_text(), profile="native") == []


# ----------------------------------------------------------------------
# Fallbacks: the fitted state is the same, only ``solver_`` says "numpy".
# ----------------------------------------------------------------------


def test_no_compiler_falls_back(fresh_load, monkeypatch):
    X, y = _problem(21, 70, 5, 0.0, 0.5, 0)
    expected = _fit_numpy(dict(C=1.0), X, y)
    monkeypatch.setenv("CC", "/nonexistent")
    model = SVC(C=1.0).fit(X, y)
    assert model.solver_ == "numpy"
    assert _fitted_bytes(model) == _fitted_bytes(expected)


def test_failed_reduction_probe_falls_back(fresh_load, monkeypatch):
    real_dot = smo.SMOKernel.dot

    def off_by_one_ulp(self, x, y):
        return float(np.nextafter(real_dot(self, x, y), np.inf))

    monkeypatch.setattr(smo.SMOKernel, "dot", off_by_one_ulp)
    X, y = _problem(22, 70, 5, 0.0, 0.5, 0)
    model = SVC(C=1.0).fit(X, y)
    assert model.solver_ == "numpy"
    assert _fitted_bytes(model) == _fitted_bytes(_fit_numpy(dict(C=1.0), X, y))


def test_ineligible_gram_matrix_stays_on_numpy():
    K = np.zeros((3, 3))
    y = np.array([1.0, -1.0, 1.0])
    rng = np.random.default_rng(0)
    assert smo.solve(np.asfortranarray(K + np.eye(3)), y, 1.0, 1e-3, 5, 9, rng) is None
    assert smo.solve(K.astype(np.float32), y, 1.0, 1e-3, 5, 9, rng) is None
    with mock.patch.object(smo, "_SERIAL_DDOT_MAX", 2):
        assert smo.solve(K, y, 1.0, 1e-3, 5, 9, rng) is None
