"""Unit tests for Gaussian-process regression."""

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.optim.gp import (
    GaussianProcess,
    MultiObjectiveGP,
    pairwise_sq,
    se_kernel,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def _median_heuristic(x: np.ndarray) -> float:
    n = x.shape[0]
    if n < 2:
        return 1.0
    upper = np.sqrt(pairwise_sq(x, x)[np.triu_indices(n, k=1)])
    positive = upper[upper > 0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def _log_marginal(y_std: np.ndarray, chol: np.ndarray,
                  alpha: np.ndarray) -> float:
    n = y_std.shape[0]
    return float(-0.5 * y_std @ alpha
                 - np.sum(np.log(np.diag(chol)))
                 - 0.5 * n * np.log(2 * np.pi))


class LuReferenceGP:
    """Reference oracle: the original single-objective GP arithmetic.

    Every solve is a general LU solve on the Cholesky factor and the
    log marginal likelihood is taken from ``y . alpha``.  The production
    GP (forward solve, inverse factor) must select the same lengthscales
    and agree with it to round-off.
    """

    def __init__(self, noise: float = 1e-3,
                 lengthscale: Optional[float] = None,
                 tune_lengthscale: bool = True):
        self.noise = noise
        self.lengthscale = lengthscale
        self.tune_lengthscale = tune_lengthscale
        self._variance = 1.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LuReferenceGP":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        self._y_mean = float(np.mean(y))
        self._y_std = float(np.std(y))
        if self._y_std < 1e-12:
            self._y_std = 1.0
        y_std = (y - self._y_mean) / self._y_std

        base = (self.lengthscale if self.lengthscale is not None
                else _median_heuristic(x))
        candidates = [base]
        if self.tune_lengthscale and self.lengthscale is None:
            candidates = [base * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]

        best: Tuple[float, float, np.ndarray, np.ndarray] | None = None
        for ls in candidates:
            try:
                chol, alpha = self._factorise(x, y_std, ls)
            except np.linalg.LinAlgError:
                continue
            lml = _log_marginal(y_std, chol, alpha)
            if best is None or lml > best[0]:
                best = (lml, ls, chol, alpha)

        _, self.fitted_lengthscale, self._chol, self._alpha = best
        self._x = x
        return self

    def _factorise(self, x: np.ndarray, y_std: np.ndarray,
                   lengthscale: float) -> Tuple[np.ndarray, np.ndarray]:
        k = se_kernel(x, x, lengthscale, self._variance)
        k[np.diag_indices_from(k)] += self.noise ** 2 + 1e-8
        chol = np.linalg.cholesky(k)
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y_std))
        return chol, alpha

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k_star = se_kernel(self._x, x, self.fitted_lengthscale,
                           self._variance)
        mean_std = k_star.T @ self._alpha
        v = np.linalg.solve(self._chol, k_star)
        var = self._variance - np.sum(v ** 2, axis=0)
        np.maximum(var, 1e-12, out=var)
        mean = mean_std * self._y_std + self._y_mean
        std = np.sqrt(var) * self._y_std
        return mean, std


class TestSeKernel:
    def test_diagonal_is_variance(self):
        x = np.random.default_rng(0).uniform(size=(5, 3))
        k = se_kernel(x, x, lengthscale=1.0, variance=2.0)
        assert np.allclose(np.diag(k), 2.0)

    def test_symmetric_positive(self):
        x = np.random.default_rng(1).uniform(size=(6, 2))
        k = se_kernel(x, x, lengthscale=0.5, variance=1.0)
        assert np.allclose(k, k.T)
        assert (k > 0).all()

    def test_decays_with_distance(self):
        a = np.array([[0.0]])
        near = np.array([[0.1]])
        far = np.array([[2.0]])
        assert se_kernel(a, near, 0.5, 1.0)[0, 0] > \
            se_kernel(a, far, 0.5, 1.0)[0, 0]

    def test_rejects_bad_hyperparameters(self):
        x = np.zeros((1, 1))
        with pytest.raises(ConfigError):
            se_kernel(x, x, lengthscale=0.0, variance=1.0)
        with pytest.raises(ConfigError):
            se_kernel(x, x, lengthscale=1.0, variance=-1.0)


class TestGaussianProcess:
    def setup_data(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, 2))
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1]
        return x, y

    def test_interpolates_training_points(self):
        x, y = self.setup_data()
        gp = GaussianProcess(noise=1e-4).fit(x, y)
        mean, _ = gp.predict(x)
        assert np.allclose(mean, y, atol=0.05)

    def test_uncertainty_small_at_data_large_away(self):
        x, y = self.setup_data()
        gp = GaussianProcess().fit(x, y)
        _, std_at_data = gp.predict(x[:1])
        _, std_far = gp.predict(np.array([[5.0, 5.0]]))
        assert std_far[0] > std_at_data[0]

    def test_prediction_shapes(self):
        x, y = self.setup_data()
        gp = GaussianProcess().fit(x, y)
        mean, std = gp.predict(np.random.default_rng(2).uniform(size=(7, 2)))
        assert mean.shape == (7,)
        assert std.shape == (7,)
        assert (std > 0).all()

    def test_reverts_to_prior_far_away(self):
        x, y = self.setup_data()
        gp = GaussianProcess().fit(x, y)
        mean, _ = gp.predict(np.array([[100.0, 100.0]]))
        assert mean[0] == pytest.approx(np.mean(y), abs=0.2)

    def test_generalizes_on_smooth_function(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(40, 1))
        y = np.sin(4 * x[:, 0])
        gp = GaussianProcess().fit(x, y)
        x_test = rng.uniform(size=(10, 1))
        mean, _ = gp.predict(x_test)
        assert np.abs(mean - np.sin(4 * x_test[:, 0])).max() < 0.3

    def test_constant_targets_handled(self):
        x = np.random.default_rng(4).uniform(size=(5, 2))
        gp = GaussianProcess().fit(x, np.full(5, 3.0))
        mean, _ = gp.predict(x)
        assert np.allclose(mean, 3.0, atol=1e-6)

    def test_fixed_lengthscale_respected(self):
        x, y = self.setup_data()
        gp = GaussianProcess(lengthscale=0.7).fit(x, y)
        assert gp.fitted_lengthscale == 0.7

    def test_predict_before_fit_raises(self):
        with pytest.raises(ConfigError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_empty_fit_rejected(self):
        with pytest.raises(ConfigError):
            GaussianProcess().fit(np.zeros((0, 2)), np.zeros(0))

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ConfigError):
            GaussianProcess(noise=0.0)


class TestLuReferenceOracle:
    """Forward-solve / inverse-factor GP vs the LU reference oracle."""

    def _data(self, seed, n, d=7):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 8, size=(n, d)) / 7.0  # grid-like BO inputs
        # Objectives on very different scales and offsets, like the
        # (-success, power, weight) triple Phase 2 models.
        y = rng.normal(size=(n, 3)) * [1.0, 100.0, 1e-3] + [0.0, 5.0, -2.0]
        xq = rng.integers(0, 8, size=(64, d)) / 7.0
        return x, y, xq

    @staticmethod
    def _assert_close(actual, expected):
        # Relative to the column's scale: a mean near zero must not
        # turn round-off into a large pointwise ratio.
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(actual, expected, rtol=0,
                                   atol=1e-10 * scale)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 160])
    def test_matches_lu_reference(self, n):
        for seed in range(3):
            x, y, xq = self._data(1000 * seed + n, n)
            gp = MultiObjectiveGP().fit(x, y)
            means, stds = gp.predict(xq)
            for j in range(y.shape[1]):
                ref = LuReferenceGP().fit(x, y[:, j])
                mean, std = ref.predict(xq)
                assert gp.fitted_lengthscales[j] == ref.fitted_lengthscale
                self._assert_close(means[:, j], mean)
                self._assert_close(stds[:, j], std)

    def test_fixed_lengthscale_matches_lu_reference(self):
        x, y, xq = self._data(5, 40)
        gp = MultiObjectiveGP(lengthscale=0.6).fit(x, y)
        means, stds = gp.predict(xq)
        for j in range(y.shape[1]):
            mean, std = LuReferenceGP(lengthscale=0.6).fit(
                x, y[:, j]).predict(xq)
            self._assert_close(means[:, j], mean)
            self._assert_close(stds[:, j], std)


class TestNumpyOnly:
    def test_src_has_no_scipy_import(self):
        offenders = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            for line in path.read_text().splitlines()
            if line.lstrip().startswith(("import scipy", "from scipy"))
        ]
        assert offenders == []

    def test_cli_import_leaves_scipy_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
