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

The grid and the hyperparameters are fixed for a run, so the covariance
between two sets never changes: :class:`KernelRows` computes a set's row
of the kernel against the whole grid once, when the set is first tried,
and fits and grid predictions read their blocks from those rows. The
Cholesky factor and its solves call LAPACK ``potrf``/``potrs`` directly,
and the predictive variance takes one BLAS triangular solve (``trsm``;
GPML Alg. 2.1). Their last bits depend on OpenBLAS's thread count, so a
run's numerics go inside :func:`one_blas_thread`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence, Union

import numpy as np
import scipy
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs

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

    def __post_init__(self) -> None:
        if self.kind not in (KERNEL_RBF, KERNEL_MATERN52):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        # Written so that NaN fails every check.
        for name in ("length_scale", "signal_variance", "jitter"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"kernel {name} must be positive and finite")
        if not 0.0 <= self.noise_variance < math.inf:
            raise ConfigError("kernel noise_variance must be nonnegative and finite")


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


class KernelRows:
    """Rows of the kernel between tried sets and every set of the grid.

    A set's row ``kernel_matrix(cfg, coords[[i]], coords)`` is computed
    when the set is first needed and kept; each entry is computed pair by
    pair, so any block read from the rows equals ``kernel_matrix`` on that
    block bitwise. Memory is (distinct sets tried) x n_sets: the full
    n_sets x n_sets matrix is never built. One instance serves one run
    (one space and one kernel configuration).
    """

    def __init__(self, space: ParameterSpace, cfg: KernelConfig):
        self.space = space
        self.cfg = cfg
        self._slot = np.full(space.n_sets, -1, dtype=np.intp)
        self._rows = np.empty((0, space.n_sets))
        self._used = 0

    def __len__(self) -> int:
        return self._used

    def _slots(self, sets: np.ndarray) -> np.ndarray:
        new = sets[self._slot[sets] < 0]
        if new.size:
            need = self._used + new.size
            if need > len(self._rows):
                grown = np.empty((min(max(need, 2 * len(self._rows)),
                                      self.space.n_sets), self.space.n_sets))
                grown[: self._used] = self._rows[: self._used]
                self._rows = grown
            coords = self.space.normalized_all()
            self._rows[self._used:need] = kernel_matrix(self.cfg, coords[new], coords)
            self._slot[new] = np.arange(self._used, need)
            self._used = need
        return self._slot[sets]

    def block(self, sets: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Kernel between distinct ``sets`` and ``cols`` (default: all sets)."""
        slots = self._slots(sets)
        if cols is None:
            return self._rows[slots]
        return self._rows[np.ix_(slots, cols)]


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``a``; None when it is not positive definite."""
    _check_finite(a)
    c, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b for the lower factor L in ``c``."""
    _check_finite(b)
    x, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


# NumPy and SciPy wheels each bundle their own OpenBLAS, with its own
# thread setting: (package, symbol suffix) per copy.
_BUNDLED_OPENBLAS = ((np, "64_"), (scipy, ""))


@functools.cache
def _blas_thread_controls() -> tuple[tuple[Any, Any], ...]:
    """(getter, setter) of the thread count of each OpenBLAS copy bundled
    with NumPy or SciPy. A copy that is not found or lacks either function
    (another BLAS build) is left out. Looked up once per process."""
    controls = []
    for package, suffix in _BUNDLED_OPENBLAS:
        pkg_dir = Path(package.__file__).parent
        libs = pkg_dir.parent / f"{pkg_dir.name}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                controls.append((getter, setter))
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with the bundled OpenBLAS copies on one thread.

    One run's matrices are small: a second thread only spins beside it,
    and it changes the last bits of ``potrf``/``potrs``/``trsm``, so a
    run's output would depend on the machine. Each copy's previous count
    is restored on the way out, also when the block raises. The count is
    per process, so this is not safe to enter from several threads at
    once. A no-op where the copies or their thread functions are missing.
    """
    controls = _blas_thread_controls()
    previous = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(controls, previous):
            setter(count)


class GPModel:
    """A fitted GP for one metric: the distinct sets tried, their mean
    targets and the Cholesky factor of their noisy covariance.

    Immutable after construction; predictions are pure. The rows of its
    training sets are in the shared kernel rows from the fit on.
    """

    def __init__(
        self,
        space: ParameterSpace,
        train_sets: np.ndarray,
        set_means: np.ndarray,
        cfg: KernelConfig,
        factor: np.ndarray,
        y_mean: float,
        y_std: float,
        rows: KernelRows,
    ):
        self.space = space
        self.train_sets = train_sets
        self.set_means = set_means
        self.cfg = cfg
        self._factor = factor
        self.y_mean = y_mean
        self.y_std = y_std
        self._rows = rows
        self._alpha = _cho_solve(factor, (set_means - y_mean) / y_std)

    def _posterior(self, k_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance (metric units) from the train-by-query kernel.

        The variance is k** - v^T v with v = L^-1 k* (GPML Alg. 2.1): one
        triangular solve instead of the two of a full Cholesky solve.
        """
        mean_s = k_star.T @ self._alpha
        _check_finite(k_star)
        v = dtrsm(1.0, self._factor, k_star, lower=1)
        var_s = self.cfg.signal_variance - np.sum(v * v, axis=0)
        floor = -1e-6 * self.cfg.signal_variance
        if np.any(var_s < floor):
            raise FitError(
                "predicted variance fell below the numerical floor; "
                "covariance factorization is unreliable"
            )
        var_s = np.maximum(var_s, 0.0)  # the one variance floor
        mean = self.y_mean + self.y_std * mean_s
        var = self.y_std**2 * var_s
        return mean, var

    def predict_coords(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (metric units) at (m, b) coordinates."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        train_coords = self.space.normalized_all()[self.train_sets]
        return self._posterior(kernel_matrix(self.cfg, train_coords, coords))

    def predict_sets(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        cols = np.asarray(indices, dtype=int)
        return self._posterior(self._rows.block(self.train_sets, cols))

    def predict_all(self) -> tuple[np.ndarray, np.ndarray]:
        return self._posterior(self._rows.block(self.train_sets))


def _factorize(cfg: KernelConfig, k: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Cholesky of k + diag((noise + jitter) / counts), escalating jitter.

    Row i is the mean of counts[i] readings of one set, so its noise (and
    the jitter that stands in for noise) is divided by the count.
    """
    jitter = cfg.jitter
    while True:
        factor = _cholesky(k + np.diag((cfg.noise_variance + jitter) / counts))
        if factor is not None:
            return factor
        jitter *= 10.0
        if jitter > MAX_JITTER:
            raise FitError(
                "covariance matrix is not positive definite even with "
                f"jitter {MAX_JITTER:g}; training data is degenerate"
            )


def _standardize(targets: np.ndarray) -> tuple[float, float]:
    # np.mean and np.std without their wrappers: the same np.add.reduce
    # sums, divided by the count, so the same bits.
    n = len(targets)
    mean = float(np.add.reduce(targets)) / n
    dev = targets - mean
    std = math.sqrt(float(np.add.reduce(dev * dev)) / n)
    if std == 0.0:
        std = 1.0
    return mean, std


@dataclass(frozen=True)
class SetTotals:
    """A fit's trials grouped by set, kept by a caller that adds trials
    one at a time: the distinct sets tried (ascending, as ``np.unique``
    gives them), each set's trial count and, per metric, each set's sum of
    targets. A sum accumulated in trial order from 0.0 is the sum
    ``np.bincount`` takes, bit for bit.
    """

    sets: np.ndarray
    counts: np.ndarray
    sums: Mapping[str, np.ndarray]


def fit_xy(
    space: ParameterSpace,
    set_indices: Sequence[int],
    values: Sequence[float],
    cfg: KernelConfig = KernelConfig(),
) -> GPModel:
    """Fit a GP to explicit (set index, value) training pairs."""
    if len(values) != len(set_indices):
        raise ConfigError("set_indices and values must have the same length")
    return fit_many_xy(space, set_indices, {"": values}, cfg)[""]


def fit_many_xy(
    space: ParameterSpace,
    set_indices: Sequence[int],
    values_by_metric: dict[str, Sequence[float]],
    cfg: KernelConfig = KernelConfig(),
    rows: KernelRows | None = None,
    totals: SetTotals | None = None,
) -> dict[str, GPModel]:
    """Fit one GP per metric over shared inputs, factorizing K only once.

    Valid because standardization affects targets only: the kernel matrix
    and its noise term live on the shared normalized-input / standardized-
    output scale for every metric. ``rows`` is the run's kernel-row cache
    (built for this space and ``cfg``); a fresh one is made if absent.
    ``totals`` groups these same trials by set; without it they are
    grouped here with ``np.unique`` and ``np.bincount``.
    """
    if rows is None:
        rows = KernelRows(space, cfg)
    elif rows.space is not space or rows.cfg != cfg:
        raise ConfigError("kernel rows belong to another space or kernel")
    idx = np.asarray(set_indices, dtype=int)
    if idx.size == 0:
        raise ConfigError("cannot fit a GP to zero observations")
    if totals is None:
        sets, inverse, counts = np.unique(idx, return_inverse=True, return_counts=True)
    else:
        sets, counts = totals.sets, totals.counts
    factor = _factorize(cfg, rows.block(sets, sets), counts)
    models = {}
    for metric, values in values_by_metric.items():
        y = np.asarray(values, dtype=float)
        if y.shape != idx.shape:
            raise ConfigError(f"metric {metric!r}: wrong number of values")
        y_mean, y_std = _standardize(y)
        if totals is None:
            means = np.bincount(inverse, weights=y) / counts
        else:
            means = totals.sums[metric] / counts
        models[metric] = GPModel(
            space, sets, means, cfg, factor, y_mean, y_std, rows
        )
    return models


def predict(
    model: GPModel, x: Union[int, ParameterSet, Sequence[float]]
) -> tuple[float, float]:
    """Posterior (mean, variance) at one parameter set, in metric units."""
    coords = model.space.normalized(x)
    mean, var = model.predict_coords(coords[None, :])
    return float(mean[0]), float(var[0])
