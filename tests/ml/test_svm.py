"""Tests for the SMO support vector classifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.kernels import LinearKernel, RBFKernel
from repro.ml.svm import SVC, _canonical_labels


def _blobs(n=60, gap=2.0, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(loc=gap, scale=0.5, size=(n // 2, 2))
    neg = rng.normal(loc=-gap, scale=0.5, size=(n // 2, 2))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
    return X, y


class TestCanonicalLabels:
    def test_bool(self):
        assert np.array_equal(
            _canonical_labels(np.array([True, False])), [1.0, -1.0]
        )

    def test_zero_one(self):
        assert np.array_equal(_canonical_labels(np.array([0, 1, 0])), [-1, 1, -1])

    def test_pm_one_passthrough(self):
        assert np.array_equal(_canonical_labels(np.array([-1, 1])), [-1.0, 1.0])

    def test_rejects_multiclass(self):
        with pytest.raises(ValueError):
            _canonical_labels(np.array([0, 1, 2]))


class TestSVCLinear:
    def test_separates_blobs(self):
        X, y = _blobs()
        svc = SVC(C=1.0).fit(X, y)
        assert np.mean(svc.predict(X) == y) == 1.0

    def test_primal_weights_available(self):
        X, y = _blobs()
        svc = SVC().fit(X, y)
        assert svc.coef_ is not None
        assert svc.coef_.shape == (2,)
        # Primal and dual decision functions agree.
        dual = svc.kernel(X, svc.support_vectors_) @ svc.dual_coef_ + svc.intercept_
        primal = X @ svc.coef_ + svc.intercept_
        assert np.allclose(dual, primal, atol=1e-8)

    def test_margin_geometry(self):
        """The separating direction points from the negative to the positive blob."""
        X, y = _blobs(gap=3.0)
        svc = SVC().fit(X, y)
        direction = svc.coef_ / np.linalg.norm(svc.coef_)
        assert direction @ np.array([1.0, 1.0]) / np.sqrt(2) > 0.9

    def test_accepts_boolean_labels(self):
        X, y = _blobs()
        svc = SVC().fit(X, y > 0)
        assert np.array_equal(svc.predict_bool(X), y > 0)

    def test_decision_function_sign_matches_predict(self):
        X, y = _blobs()
        svc = SVC().fit(X, y)
        values = svc.decision_function(X)
        assert np.array_equal(values >= 0, svc.predict(X) == 1)

    def test_single_sample_prediction(self):
        X, y = _blobs()
        svc = SVC().fit(X, y)
        assert svc.decision_function(X[0]).shape == (1,)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SVC().decision_function(np.zeros((1, 2)))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            SVC().fit(np.zeros((4, 2)), np.ones(4))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SVC().fit(np.zeros((4, 2)), np.ones(3))

    def test_rejects_1d_X(self):
        with pytest.raises(ValueError):
            SVC().fit(np.zeros(4), np.ones(4))

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            SVC(C=0.0)
        with pytest.raises(ValueError):
            SVC(tol=-1.0)

    @pytest.mark.parametrize(
        "params",
        [
            {"C": float("nan")},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"max_iter": 0},
            {"max_passes": 0},
            {"max_iter": -3},
        ],
        ids=["C-nan", "tol-nan", "tol-inf", "max_iter-0", "max_passes-0", "max_iter-neg"],
    )
    def test_rejects_settings_that_train_nothing(self, params):
        """Each of these used to return an all-zero model without complaint."""
        name, value = next(iter(params.items()))
        with pytest.raises(ValueError, match=name):
            SVC(**params)
        # Settings changed after construction are caught before training.
        svc = SVC()
        setattr(svc, name, value)
        with pytest.raises(ValueError, match=name):
            svc.fit(*_blobs())
        assert svc.support_vectors_ is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_features_naming_the_row(self, bad):
        X, y = _blobs()
        X[17, 1] = bad
        X[40, 0] = bad
        with pytest.raises(ValueError, match="row 17"):
            SVC().fit(X, y)

    def test_infinite_C_is_a_hard_margin(self):
        X, y = _blobs(gap=3.0)
        svc = SVC(C=float("inf")).fit(X, y)
        assert np.mean(svc.predict(X) == y) == 1.0

    def test_deterministic_given_seed(self):
        X, y = _blobs()
        a = SVC(seed=1).fit(X, y)
        b = SVC(seed=1).fit(X, y)
        assert np.allclose(a.coef_, b.coef_)
        assert a.intercept_ == pytest.approx(b.intercept_)

    def test_soft_margin_tolerates_label_noise(self):
        X, y = _blobs(n=80, gap=1.5, seed=3)
        y_noisy = y.copy()
        y_noisy[:4] *= -1  # flip a few labels
        svc = SVC(C=1.0).fit(X, y_noisy)
        # Still learns the underlying structure.
        assert np.mean(svc.predict(X) == y) > 0.9


class TestSVCRBF:
    def test_solves_xor(self):
        """Linearly inseparable data needs the RBF kernel."""
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(120, 2))
        y = np.where(X[:, 0] * X[:, 1] > 0, 1.0, -1.0)
        rbf = SVC(C=10.0, kernel=RBFKernel(gamma=2.0)).fit(X, y)
        assert np.mean(rbf.predict(X) == y) > 0.9
        linear = SVC(C=10.0).fit(X, y)
        assert np.mean(linear.predict(X) == y) < 0.75

    def test_no_primal_weights(self):
        X, y = _blobs()
        svc = SVC(kernel=RBFKernel()).fit(X, y)
        assert svc.coef_ is None

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_predictions_are_binary(self, seed):
        X, y = _blobs(n=30, seed=seed)
        svc = SVC(max_iter=30).fit(X, y)
        assert set(np.unique(svc.predict(X))) <= {-1, 1}


class TestKernels:
    def test_linear_is_dot_product(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert LinearKernel()(a, b)[0, 0] == pytest.approx(11.0)

    def test_rbf_diagonal_is_one(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        K = RBFKernel(gamma=1.0)(X, X)
        assert np.allclose(np.diag(K), 1.0)
        assert np.all(K <= 1.0 + 1e-12)
        assert np.allclose(K, K.T)

    def test_rbf_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            RBFKernel(gamma=0.0)
