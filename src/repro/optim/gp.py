"""Gaussian-process regression with a squared-exponential kernel.

The paper's Phase 2 builds one GP per objective ("the widely-used
squared exponential kernel is used due to its simplicity") and drives an
SMS-EGO acquisition over the GP posterior.  This implementation keeps
the hyper-parameter story deliberately simple and robust: inputs are
normalised to [0, 1]^d by the caller, the output is standardised
internally, the lengthscale comes from the median heuristic (optionally
refined by a small grid search on the log marginal likelihood), and a
jittered Cholesky factorisation gives numerically stable posteriors.

The module is numpy-only, and :class:`MultiObjectiveGP` is its one
code path (:class:`GaussianProcess` is a one-column view of it):

* The Gram matrix -- and therefore every candidate Cholesky factor L of
  the lengthscale grid -- depends only on the *inputs* and the
  lengthscale, never on the objective values.  All objectives share the
  same training inputs, so each candidate lengthscale is factorised
  once and scored for every objective from one forward solve
  ``Z = L^-1 Y`` over all objective columns: the log marginal
  likelihood of column j is ``-|Z_j|^2 / 2 - sum(log diag L) - n/2
  log(2 pi)``.
* Only the winning factors are inverted.  The fitted state keeps the
  inverse factor ``L^-1``, so ``alpha = L^-T Z_j`` and the posterior
  variance ``k** - |L^-1 k*|^2`` are matrix products, not solves.
* Between consecutive BO iterations the training set grows by appended
  rows only.  With ``refit_every > 1`` the inverse factor is *extended*
  by the block-inverse identity (O(n^2) instead of O(n^3)) and the
  lengthscale grid re-runs only every ``refit_every`` observations;
  alpha is always re-derived from the extended factor against the
  re-standardised targets.  The default ``refit_every=1`` refits the
  grid on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.perf.counters import Counters, register


def pairwise_sq(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance matrix between two point sets.

    Uses the dot-product expansion ``|a - b|^2 = |a|^2 + |b|^2 - 2 a.b``
    so only an (n x m) matrix is materialised, never the (n x m x d)
    difference tensor; negative round-off is clamped to zero.
    """
    a = np.asarray(x1, dtype=float)
    b = np.asarray(x2, dtype=float)
    sq = (np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :]
          - 2.0 * a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def kernel_from_sq(sq: np.ndarray, lengthscale: float,
                   variance: float) -> np.ndarray:
    """SE kernel matrix from a precomputed squared-distance matrix.

    Splitting the kernel this way lets one squared-distance matrix feed
    every lengthscale of the grid search (and every objective sharing
    the same inputs) while producing exactly the bits
    :func:`se_kernel` would.
    """
    if lengthscale <= 0 or variance <= 0:
        raise ConfigError("kernel hyper-parameters must be positive")
    return variance * np.exp(-0.5 * sq / lengthscale ** 2)


def se_kernel(x1: np.ndarray, x2: np.ndarray, lengthscale: float,
              variance: float) -> np.ndarray:
    """Squared-exponential (RBF) kernel matrix between two point sets."""
    return kernel_from_sq(pairwise_sq(x1, x2), lengthscale, variance)


def _median_heuristic(x: np.ndarray,
                      sq: Optional[np.ndarray] = None) -> float:
    """Median pairwise distance; a standard lengthscale initialiser.

    ``sq`` optionally supplies the precomputed squared-distance matrix
    of ``x`` against itself so callers that already hold one (the
    shared-factorisation fit) do not rebuild it.
    """
    n = x.shape[0]
    if n < 2:
        return 1.0
    if sq is None:
        sq = pairwise_sq(x, x)
    upper = np.sqrt(sq[np.triu_indices(n, k=1)])
    positive = upper[upper > 0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def _standardise(y: np.ndarray) -> Tuple[float, float, np.ndarray]:
    """Centre and scale one target column (a constant one keeps scale 1)."""
    mean = float(np.mean(y))
    std = float(np.std(y))
    if std < 1e-12:
        std = 1.0
    return mean, std, (y - mean) / std


_gp_stats = register("gp", Counters(
    "full_fits",            # per-objective fits via the grid search
    "incremental_updates",  # per-objective fits via factor extension
    "factorisations",       # Cholesky factorisations performed
    "fit_wall_s",           # time spent in full (grid) fits
    "update_wall_s",        # time spent in incremental updates
))


@dataclass
class _ObjectiveModel:
    """Fitted state of one objective: lengthscale, inverse factor, alpha.

    ``inv_chol`` (the inverse of the lower Cholesky factor) is shared by
    reference between objectives that selected the same lengthscale, so
    extension and prediction work is done once per distinct factor, not
    once per objective.
    """

    lengthscale: float
    inv_chol: np.ndarray
    alpha: np.ndarray
    y_mean: float
    y_std: float


class MultiObjectiveGP:
    """Per-objective GPs over shared inputs with shared factorisations.

    The median heuristic, the candidate lengthscale grid, every Gram
    matrix and every Cholesky factor depend only on the (shared) inputs,
    so they are computed once per fit; each objective then selects its
    lengthscale by log marginal likelihood (strictly greater wins, so
    the first of tied candidates is kept).  :meth:`predict` shares
    ``k_star`` and the variance product between objectives that fitted
    the same lengthscale.

    ``refit_every`` controls the incremental path: with the default 1
    every :meth:`fit` re-runs the exact grid search; with K > 1 a fit
    whose inputs extend the previous training set by appended rows
    reuses the fitted lengthscales and extends each inverse factor by a
    rank-r block update, re-running the grid only once K new
    observations have accumulated (or whenever the update is not
    applicable -- changed prefix, changed width, non-PD extension).

    Args:
        noise: Observation noise std (on standardised y), per objective.
        lengthscale: Fixed SE lengthscale; fitted per objective if None.
        tune_lengthscale: Grid-refine the median heuristic.
        refit_every: Full lengthscale-grid refit cadence in observations
            (1 = always refit).
    """

    def __init__(self, noise: float = 1e-3,
                 lengthscale: Optional[float] = None,
                 tune_lengthscale: bool = True,
                 refit_every: int = 1):
        if noise <= 0:
            raise ConfigError("noise must be positive")
        if lengthscale is not None and lengthscale <= 0:
            raise ConfigError("lengthscale must be positive when set")
        if refit_every < 1:
            raise ConfigError("refit_every must be at least 1")
        self.noise = noise
        self.lengthscale = lengthscale
        self.tune_lengthscale = tune_lengthscale
        self.refit_every = refit_every
        self._variance = 1.0
        self._x: Optional[np.ndarray] = None
        self._models: Optional[List[_ObjectiveModel]] = None
        self._grid_n = 0  # observation count at the last grid fit

    @property
    def num_objectives(self) -> int:
        """Fitted objective count (0 before the first fit)."""
        return 0 if self._models is None else len(self._models)

    @property
    def fitted_lengthscales(self) -> List[float]:
        """Per-objective lengthscales in effect after :meth:`fit`."""
        if self._models is None:
            raise ConfigError("fitted_lengthscales read before fit()")
        return [model.lengthscale for model in self._models]

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "MultiObjectiveGP":
        """Fit all objectives to observations (x: n x d, y: n x m)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ConfigError("x and y must have matching lengths")
        if x.shape[0] == 0 or y.shape[1] == 0:
            raise ConfigError("cannot fit a GP to zero observations")
        if self._can_extend(x, y):
            try:
                with _gp_stats.timed("update_wall_s"):
                    self._extend(x, y)
                return self
            except np.linalg.LinAlgError:
                pass  # non-PD extension: fall through to the exact refit
        with _gp_stats.timed("fit_wall_s"):
            self._full_fit(x, y)
        return self

    def _can_extend(self, x: np.ndarray, y: np.ndarray) -> bool:
        if self.refit_every <= 1 or self._models is None or self._x is None:
            return False
        prev_n, n = self._x.shape[0], x.shape[0]
        return (n > prev_n
                and x.shape[1] == self._x.shape[1]
                and y.shape[1] == len(self._models)
                and n - self._grid_n < self.refit_every
                and np.array_equal(x[:prev_n], self._x))

    def _full_fit(self, x: np.ndarray, y: np.ndarray) -> None:
        n, m = y.shape
        sq = pairwise_sq(x, x)
        base = (self.lengthscale if self.lengthscale is not None
                else _median_heuristic(x, sq=sq))
        candidates = [base]
        if self.tune_lengthscale and self.lengthscale is None:
            candidates = [base * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
        columns = [_standardise(y[:, j]) for j in range(m)]
        y_std = np.column_stack([column[2] for column in columns])

        jitter = self.noise ** 2 + 1e-8
        half_n_log_2pi = 0.5 * n * np.log(2 * np.pi)
        # Per objective: (lml, lengthscale, factor, forward-solve column).
        best: List[Optional[tuple]] = [None] * m
        for ls in candidates:
            k = kernel_from_sq(sq, ls, self._variance)
            k[np.diag_indices_from(k)] += jitter
            try:
                chol = np.linalg.cholesky(k)
            except np.linalg.LinAlgError:
                continue
            _gp_stats.factorisations += 1
            z = np.linalg.solve(chol, y_std)
            lml = (-0.5 * np.sum(z ** 2, axis=0)
                   - np.sum(np.log(np.diag(chol))) - half_n_log_2pi)
            for j in range(m):
                if best[j] is None or lml[j] > best[j][0]:
                    best[j] = (lml[j], ls, chol, z[:, j])
        if best[0] is None:
            raise ConfigError("GP factorisation failed for all lengthscales")

        inverses: Dict[int, np.ndarray] = {}
        models: List[_ObjectiveModel] = []
        for (_, ls, chol, z), (y_mean, y_scale, _) in zip(best, columns):
            inv_chol = inverses.get(id(chol))
            if inv_chol is None:
                inv_chol = inverses[id(chol)] = np.linalg.inv(chol)
            models.append(_ObjectiveModel(
                lengthscale=ls, inv_chol=inv_chol, alpha=inv_chol.T @ z,
                y_mean=y_mean, y_std=y_scale))
        self._x = x
        self._models = models
        self._grid_n = n
        _gp_stats.full_fits += m

    def _extend(self, x: np.ndarray, y: np.ndarray) -> None:
        """Grow every inverse factor by the appended rows.

        For K = [[K_old, C], [C.T, D]] the lower Cholesky factor is
        [[L, 0], [B.T, Ls]] with B = L^-1 C and Ls = chol(D - B.T B), so
        its inverse is [[L^-1, 0], [-Ls^-1 B.T L^-1, Ls^-1]]; alpha is
        re-derived from the extended inverse against the re-standardised
        targets.  Raises ``LinAlgError`` when the extension is not
        positive definite, which the caller turns into an exact full
        refit.
        """
        prev_n, n = self._x.shape[0], x.shape[0]
        x_new = x[prev_n:]
        sq_cross = pairwise_sq(self._x, x_new)
        sq_corner = pairwise_sq(x_new, x_new)
        jitter = self.noise ** 2 + 1e-8

        extended: Dict[int, np.ndarray] = {}
        models: List[_ObjectiveModel] = []
        for j, model in enumerate(self._models):
            new_inv = extended.get(id(model.inv_chol))
            if new_inv is None:
                ls = model.lengthscale
                corner = kernel_from_sq(sq_corner, ls, self._variance)
                corner[np.diag_indices_from(corner)] += jitter
                b = model.inv_chol @ kernel_from_sq(sq_cross, ls,
                                                    self._variance)
                corner_inv = np.linalg.inv(
                    np.linalg.cholesky(corner - b.T @ b))
                _gp_stats.factorisations += 1
                new_inv = np.empty((n, n))
                new_inv[:prev_n, :prev_n] = model.inv_chol
                new_inv[:prev_n, prev_n:] = 0.0
                new_inv[prev_n:, :prev_n] = -corner_inv @ (b.T
                                                           @ model.inv_chol)
                new_inv[prev_n:, prev_n:] = corner_inv
                extended[id(model.inv_chol)] = new_inv
            y_mean, y_scale, y_std = _standardise(y[:, j])
            models.append(_ObjectiveModel(
                lengthscale=model.lengthscale, inv_chol=new_inv,
                alpha=new_inv.T @ (new_inv @ y_std),
                y_mean=y_mean, y_std=y_scale))
        self._x = x
        self._models = models
        _gp_stats.incremental_updates += len(models)

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior means and stds at query points: two (m x k) arrays."""
        if self._x is None or self._models is None:
            raise ConfigError("predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sq_star = pairwise_sq(self._x, x)
        means = np.empty((x.shape[0], len(self._models)))
        stds = np.empty_like(means)
        shared: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for j, model in enumerate(self._models):
            entry = shared.get(id(model.inv_chol))
            if entry is None:
                k_star = kernel_from_sq(sq_star, model.lengthscale,
                                        self._variance)
                v = model.inv_chol @ k_star
                var = self._variance - np.sum(v ** 2, axis=0)
                np.maximum(var, 1e-12, out=var)
                entry = shared[id(model.inv_chol)] = (k_star, np.sqrt(var))
            k_star, sqrt_var = entry
            means[:, j] = (k_star.T @ model.alpha) * model.y_std + model.y_mean
            stds[:, j] = sqrt_var * model.y_std
        return means, stds


@dataclass
class GaussianProcess:
    """Single-objective GP: a one-column view of :class:`MultiObjectiveGP`.

    Attributes:
        noise: Observation noise standard deviation (on standardised y).
        lengthscale: SE kernel lengthscale; fitted if None.
        tune_lengthscale: Refine the median heuristic by maximising the
            log marginal likelihood over a small multiplicative grid.
    """

    noise: float = 1e-3
    lengthscale: Optional[float] = None
    tune_lengthscale: bool = True

    def __post_init__(self) -> None:
        self._model = MultiObjectiveGP(self.noise, self.lengthscale,
                                       self.tune_lengthscale)

    @property
    def fitted_lengthscale(self) -> float:
        """The lengthscale in effect after :meth:`fit` (1.0 before)."""
        if self._model.num_objectives == 0:
            return 1.0
        return self._model.fitted_lengthscales[0]

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit the GP to observations (x: n x d, y: n)."""
        self._model.fit(x, np.asarray(y, dtype=float).reshape(-1, 1))
        return self

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points (m x d)."""
        means, stds = self._model.predict(x)
        return means[:, 0], stds[:, 0]
