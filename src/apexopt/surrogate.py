"""Gaussian-process regression with fixed hyperparameters.

One GP is fitted per metric to (parameter set, observed value) pairs.
Targets are standardized to zero mean / unit variance (over every trial)
before fitting, so the default kernel hyperparameters and the
observation-noise variance are scale-free across metrics measured in
different units. Repeated trials of one set collapse to their mean,
observed with noise (sigma^2 + jitter) / k for k readings (Rasmussen &
Williams, GPML section 2.2): the posterior equals the one-row-per-trial
GP in exact arithmetic, and fit and prediction cost depends on the number
of distinct sets tried, not on the trial count. Hyperparameters are never
optimized here; the defaults follow the engine's standard configuration
(RBF kernel, length scale 1 on normalized coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from apexopt.domain import ConfigError, ParameterSet, ParameterSpace

KERNEL_RBF = "rbf"
KERNEL_MATERN52 = "matern52"

MAX_JITTER = 1e-4


class FitError(RuntimeError):
    """Covariance factorization failed even after jitter escalation."""


@dataclass(frozen=True)
class KernelConfig:
    """Fixed GP hyperparameters (on normalized inputs / standardized outputs)."""

    kind: str = KERNEL_RBF
    length_scale: float = 1.0
    signal_variance: float = 1.0
    noise_variance: float = 0.1
    jitter: float = 1e-8
    standardize: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (KERNEL_RBF, KERNEL_MATERN52):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.length_scale <= 0:
            raise ConfigError("length_scale must be positive")
        if self.signal_variance <= 0:
            raise ConfigError("signal_variance must be positive")
        if self.noise_variance < 0:
            raise ConfigError("noise_variance must be nonnegative")
        if self.jitter <= 0:
            raise ConfigError("jitter must be positive")


def kernel_matrix(cfg: KernelConfig, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Covariance between two point sets of shape (n, b) and (m, b)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    # One dimension at a time: no (n, m, b) temporary.
    d2 = np.zeros((u.shape[0], v.shape[0]))
    for k in range(u.shape[1]):
        diff = u[:, k, None] - v[None, :, k]
        d2 += diff * diff
    if cfg.kind == KERNEL_RBF:
        return cfg.signal_variance * np.exp(-d2 / (2.0 * cfg.length_scale**2))
    r = np.sqrt(np.maximum(d2, 0.0)) / cfg.length_scale
    s5r = math.sqrt(5.0) * r
    return cfg.signal_variance * (1.0 + s5r + 5.0 * r**2 / 3.0) * np.exp(-s5r)


def kernel(cfg: KernelConfig, u: Sequence[float], v: Sequence[float]) -> float:
    """Covariance between two normalized coordinate vectors."""
    return float(kernel_matrix(cfg, np.asarray(u, float), np.asarray(v, float))[0, 0])


class GPModel:
    """A fitted GP for one metric: the distinct sets tried, their mean
    targets and the Cholesky factor of their noisy covariance.

    Immutable after construction; predictions are pure and may run
    concurrently.
    """

    def __init__(
        self,
        space: ParameterSpace,
        train_coords: np.ndarray,
        set_means: np.ndarray,
        cfg: KernelConfig,
        factor,
        y_mean: float,
        y_std: float,
    ):
        self.space = space
        self.train_coords = train_coords
        self.set_means = set_means
        self.cfg = cfg
        self._factor = factor
        self.y_mean = y_mean
        self.y_std = y_std
        self._alpha = cho_solve(factor, (set_means - y_mean) / y_std)

    def predict_coords(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (metric units) at (m, b) coordinates."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        k_star = kernel_matrix(self.cfg, self.train_coords, coords)
        mean_s = k_star.T @ self._alpha
        solved = cho_solve(self._factor, k_star)
        var_s = self.cfg.signal_variance - np.sum(k_star * solved, axis=0)
        floor = -1e-6 * self.cfg.signal_variance
        if np.any(var_s < floor):
            raise FitError(
                "predicted variance fell below the numerical floor; "
                "covariance factorization is unreliable"
            )
        var_s = np.maximum(var_s, 0.0)
        mean = self.y_mean + self.y_std * mean_s
        var = self.y_std**2 * var_s
        return mean, var

    def predict_sets(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        coords = self.space.normalized_all()[np.asarray(indices, dtype=int)]
        return self.predict_coords(coords)

    def predict_all(self) -> tuple[np.ndarray, np.ndarray]:
        return self.predict_coords(self.space.normalized_all())


def _factorize(cfg: KernelConfig, coords: np.ndarray, counts: np.ndarray):
    """Cholesky of K + diag((noise + jitter) / counts), escalating jitter.

    Row i is the mean of counts[i] readings of one set, so its noise (and
    the jitter that stands in for noise) is divided by the count.
    """
    k = kernel_matrix(cfg, coords, coords)
    jitter = cfg.jitter
    while True:
        try:
            return cho_factor(
                k + np.diag((cfg.noise_variance + jitter) / counts), lower=True
            )
        except LinAlgError:
            jitter *= 10.0
            if jitter > MAX_JITTER:
                raise FitError(
                    "covariance matrix is not positive definite even with "
                    f"jitter {MAX_JITTER:g}; training data is degenerate"
                ) from None


def _standardize(targets: np.ndarray, cfg: KernelConfig) -> tuple[float, float]:
    if not cfg.standardize:
        return 0.0, 1.0
    mean = float(np.mean(targets))
    std = float(np.std(targets))
    if std == 0.0:
        std = 1.0
    return mean, std


def fit_xy(
    space: ParameterSpace,
    set_indices: Sequence[int],
    values: Sequence[float],
    cfg: KernelConfig = KernelConfig(),
) -> GPModel:
    """Fit a GP to explicit (set index, value) training pairs."""
    if len(values) != len(set_indices):
        raise ConfigError("set_indices and values must have the same length")
    return _fit(space, set_indices, {"": values}, cfg)[""]


def fit_many_xy(
    space: ParameterSpace,
    set_indices: Sequence[int],
    values_by_metric: dict[str, Sequence[float]],
    cfg: KernelConfig = KernelConfig(),
) -> dict[str, GPModel]:
    """Fit one GP per metric over shared inputs, factorizing K only once.

    Valid because standardization affects targets only: the kernel matrix
    and its noise term live on the shared normalized-input / standardized-
    output scale for every metric.
    """
    return _fit(space, set_indices, values_by_metric, cfg)


def _fit(
    space: ParameterSpace,
    set_indices: Sequence[int],
    values_by_metric: dict[str, Sequence[float]],
    cfg: KernelConfig,
) -> dict[str, GPModel]:
    idx = np.asarray(set_indices, dtype=int)
    if idx.size == 0:
        raise ConfigError("cannot fit a GP to zero observations")
    sets, inverse, counts = np.unique(idx, return_inverse=True, return_counts=True)
    coords = space.normalized_all()[sets]
    factor = _factorize(cfg, coords, counts)
    models = {}
    for metric, values in values_by_metric.items():
        y = np.asarray(values, dtype=float)
        if y.shape != idx.shape:
            raise ConfigError(f"metric {metric!r}: wrong number of values")
        y_mean, y_std = _standardize(y, cfg)
        means = np.bincount(inverse, weights=y) / counts
        models[metric] = GPModel(space, coords, means, cfg, factor, y_mean, y_std)
    return models


def predict(
    model: GPModel, x: Union[int, ParameterSet, Sequence[float]]
) -> tuple[float, float]:
    """Posterior (mean, variance) at one parameter set, in metric units."""
    coords = model.space.normalized(x)
    mean, var = model.predict_coords(coords[None, :])
    return float(mean[0]), float(var[0])
