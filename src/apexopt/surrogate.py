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
and fits read their blocks from those rows. It also keeps the run's
Cholesky factor L from one fit to the next, rows in the order the sets
were first tried, with V = L^-1 K[tried sets, every set] and
L^-1 [1 | per-metric set means]. A trial changes one set, so a fit
refactors only the trailing rows from that set's row on: a new set is one
appended row, O(m n_sets) for m distinct sets, and a repeat of the i-th
set costs O((m - i) m n_sets) (blocked right-looking Cholesky, Golub &
Van Loan section 4.2; each appended row is one triangular solve, GPML
Alg. 2.1). Predictions at grid sets read V, with no solve. A fit without
kept rows is the same refit from row 0. The factorization calls LAPACK
``potrf`` and the solves BLAS ``trsm`` directly; their last bits depend
on OpenBLAS's thread count, so a run's numerics go inside
:func:`one_blas_thread`.
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
from scipy.linalg.lapack import dpotrf

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
    """The run's GP state: kernel rows of the tried sets and the kept factor.

    A set's row ``kernel_matrix(cfg, coords[[i]], coords)`` is computed
    when the set is first needed and kept; each entry is computed pair by
    pair, so any block read from the rows equals ``kernel_matrix`` on that
    block bitwise. Memory is (distinct sets tried) x n_sets: the full
    n_sets x n_sets matrix is never built. One instance serves one run
    (one space and one kernel configuration).

    :meth:`refit` keeps, from one fit to the next, the Cholesky factor L of
    the fitted sets' noisy covariance, with its rows in slot order (the
    order in which the sets were first needed), and
    ``L^-1 [K[fitted sets, every set] | 1 | per-metric set means]``. A fit
    whose first changed row is i refactors rows i.. only.
    """

    def __init__(self, space: ParameterSpace, cfg: KernelConfig):
        self.space = space
        self.cfg = cfg
        self._slot = np.full(space.n_sets, -1, dtype=np.intp)
        self._rows = np.empty((0, space.n_sets))
        self._used = 0
        # The kept factor, of the m fitted sets in ``order``: their rows of
        # the fit's table, the metric names, the jitter, L
        # (``lower[:m, :m]``, lower triangle), [V | w] = L^-1 [K[order,
        # every set] | 1 | means] (``vw[:m]``) and the standardized
        # posterior variance at every set.
        self._order = np.empty(0, dtype=np.intp)
        self._table = np.empty((0, 3))
        self._keys: tuple[str, ...] = ()
        self._jitter: float | None = None
        self._lower = np.empty((0, 0))
        self._vw = np.empty((0, space.n_sets + 1))
        self._var = np.empty(0)
        # Bumped by every refit; a model of an earlier fit is stale.
        self.generation = 0

    def __len__(self) -> int:
        return self._used

    def _slots(self, sets: np.ndarray) -> np.ndarray:
        slots = self._slot[sets]
        if slots.size and np.minimum.reduce(slots) < 0:
            new = sets[slots < 0]
            need = self._used + new.size
            if need > len(self._rows):
                self._rows = _grown(self._rows, need, self.space.n_sets, self._used)
            coords = self.space.normalized_all()
            self._rows[self._used:need] = kernel_matrix(self.cfg, coords[new], coords)
            self._slot[new] = np.arange(self._used, need)
            self._used = need
            slots = self._slot[sets]
        return slots

    def block(self, sets: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Kernel between distinct ``sets`` and ``cols`` (default: all sets)."""
        slots = self._slots(sets)
        if cols is None:
            return self._rows[slots]
        return self._rows[np.ix_(slots, cols)]

    def refit(self, sets: np.ndarray, table: np.ndarray, keys: tuple[str, ...]) -> None:
        """Factor the noisy covariance of the distinct ``sets`` (ascending),
        keeping the rows that did not change.

        ``table`` has one row per set: the set, its trial count, then
        [1 | set means] of the metrics named by ``keys``. Rows are ordered
        by slot, so a set tried for the first time is the last row. The
        first row i whose table row differs from the kept factor's is the
        first refactored. With L11 kept, the trailing rows are
        L21 = ``V[:i, sets[i:]]^T`` (no solve), L22 = chol(A22 - L21 L21^T),
        and ``[V | w]`` of rows i.. from one triangular solve against
        ``[K[sets[i:]] | 1 | means[i:]] - L21 [V | w][:i]``. Each fit tries
        ``cfg.jitter`` first; a failed factorization escalates the jitter
        tenfold and refactors from row 0, as does a factor that holds
        another jitter or other metrics. The standardized variance at every
        set, k** - sum V^2, is checked against the numerical floor before
        anything is kept, so a FitError leaves the kept factor as it was.
        """
        perm = self._slots(sets).argsort(kind="stable")
        order, table = sets[perm], table[perm]
        jitter = self.cfg.jitter
        start = self._first_changed(table, keys)
        while (tail := self._trailing(start, order, table, jitter)) is None:
            jitter *= 10.0
            if jitter > MAX_JITTER:
                raise FitError(
                    "covariance matrix is not positive definite even with "
                    f"jitter {MAX_JITTER:g}; training data is degenerate"
                )
            start = 0
        l21, l22, vw = tail
        n = self.space.n_sets
        v = vw[:, :n]
        sumsq = np.einsum("ij,ij->j", v, v)
        if start:
            v = self._vw[:start, :n]
            sumsq += np.einsum("ij,ij->j", v, v)
        var_s = _variance_floor(self.cfg, self.cfg.signal_variance - sumsq)

        # Commit: nothing above changed the kept factor.
        m = len(order)
        if keys != self._keys:
            self._vw = np.empty((len(self._lower), vw.shape[1]))
        if m > len(self._lower):
            self._lower = _grown(self._lower, m, n, start, square=True)
            self._vw = _grown(self._vw, m, n, start)
        self._lower[start:m, :start] = l21
        self._lower[start:m, start:m] = l22
        self._vw[start:m] = vw
        self._order, self._table = order, table
        self._keys, self._jitter = keys, jitter
        self._var = var_s
        self.generation += 1

    def _first_changed(self, table: np.ndarray, keys: tuple[str, ...]) -> int:
        """The first row that differs from the kept factor's."""
        if self._jitter != self.cfg.jitter or keys != self._keys:
            return 0
        k = min(len(table), len(self._table))
        if not k:
            return 0
        differ = (table[:k] != self._table[:k]).ravel()
        first = int(differ.argmax())
        return first // table.shape[1] if differ[first] else k

    def _trailing(self, start: int, order: np.ndarray, table: np.ndarray,
                  jitter: float):
        """(L21, L22, [V | w]) of rows ``start..``; None when L22 does not
        exist. Reads the kept factor and writes nothing to it."""
        tail = order[start:]
        k_tail = self._rows[self._slot[tail]]
        # Row i is the mean of counts[i] readings of one set, so its noise
        # (and the jitter that stands in for noise) is divided by the count.
        a22 = k_tail[:, tail]
        a22.flat[:: len(tail) + 1] += (self.cfg.noise_variance + jitter) / table[start:, 1]
        b = np.concatenate((k_tail, table[start:, 2:]), axis=1)
        l21 = self._vw[:start, tail].T
        if start:
            a22 -= l21 @ l21.T
            b -= l21 @ self._vw[:start]
        l22 = _cholesky(a22)
        if l22 is None:
            return None
        # b L22^-T on the transposed, Fortran-ordered b: no copy.
        return l21, l22, dtrsm(1.0, l22, b.T, side=1, lower=1, trans_a=1,
                               overwrite_b=1).T


def _grown(buf: np.ndarray, need: int, n_sets: int, keep: int,
           square: bool = False) -> np.ndarray:
    """A buffer of at least ``need`` rows (doubling, at most n_sets) whose
    first ``keep`` rows (and columns, for a square one) are ``buf``'s."""
    rows = min(max(need, 2 * len(buf)), n_sets)
    grown = np.empty((rows, rows if square else buf.shape[1]))
    if square:
        grown[:keep, :keep] = buf[:keep, :keep]
    else:
        grown[:keep] = buf[:keep]
    return grown


def _variance_floor(cfg: KernelConfig, var_s: np.ndarray) -> np.ndarray:
    """Standardized variances clamped at 0: the one variance floor. A value
    below -1e-6 signal variances means the factor is unreliable."""
    if np.minimum.reduce(var_s) < -1e-6 * cfg.signal_variance:
        raise FitError(
            "predicted variance fell below the numerical floor; "
            "covariance factorization is unreliable"
        )
    return np.maximum(var_s, 0.0)


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``a``; None when it is not positive definite.
    ``a`` is built from kernel rows and finite targets, so it is finite."""
    c, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c


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
    """A fitted GP for one metric: the distinct sets tried (ascending),
    their mean targets and the target standardization.

    Predictions read the kept factor of the fit's kernel rows, so a model
    is valid until the next fit on the same rows; predicting from it after
    that raises RuntimeError.
    """

    def __init__(
        self,
        space: ParameterSpace,
        train_sets: np.ndarray,
        set_means: np.ndarray,
        cfg: KernelConfig,
        y_mean: float,
        y_std: float,
        rows: KernelRows,
        column: int,
    ):
        self.space = space
        self.train_sets = train_sets
        self.set_means = set_means
        self.cfg = cfg
        self.y_mean = y_mean
        self.y_std = y_std
        self._rows = rows
        self._column = column
        self._generation = rows.generation

    def _kept(self) -> KernelRows:
        """The kernel rows, holding this model's fit."""
        if self._rows.generation != self._generation:
            raise RuntimeError("GP model is stale: its kernel rows were refitted")
        return self._rows

    def _posterior(self, v: np.ndarray, var_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance (metric units) from v = L^-1 k* and the
        standardized variance k** - v^T v (GPML Alg. 2.1).

        With w = L^-1 [1 | set means], the mean is
        y_mean + v^T (w_y - y_mean w_1); y_std cancels out of it.
        """
        w = self._rows._vw[: len(v), self.space.n_sets:]
        mean = self.y_mean + v.T @ (w[:, self._column] - self.y_mean * w[:, 0])
        return mean, self.y_std**2 * var_s

    def predict_coords(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (metric units) at (m, b) coordinates."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        rows = self._kept()
        m = len(rows._order)
        train_coords = self.space.normalized_all()[rows._order]
        k_star = kernel_matrix(self.cfg, train_coords, coords)
        _check_finite(k_star)
        v = dtrsm(1.0, rows._lower[:m, :m], k_star, lower=1)
        var_s = self.cfg.signal_variance - np.sum(v * v, axis=0)
        return self._posterior(v, _variance_floor(self.cfg, var_s))

    def predict_sets(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (metric units) at grid sets."""
        cols = np.asarray(indices, dtype=int)
        rows = self._kept()
        return self._posterior(rows._vw[: len(rows._order), cols], rows._var[cols])

    def predict_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (metric units) at every grid set."""
        rows = self._kept()
        v = rows._vw[: len(rows._order), : self.space.n_sets]
        return self._posterior(v, rows._var)


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
    output scale for every metric. ``rows`` is the run's GP state (built
    for this space and ``cfg``): its kernel rows and the factor it keeps
    from the previous fit, of which only the rows that changed are
    refactored (:meth:`KernelRows.refit`); the models of that previous fit
    are stale from now on. Without ``rows`` a fresh state is made and every
    row is factored. ``totals`` groups these same trials by set; without
    it they are grouped here with ``np.unique`` and ``np.bincount``.
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
    keys = tuple(values_by_metric)
    # One row per set: the set, its trial count, then [1 | set means].
    table = np.empty((len(sets), 3 + len(keys)))
    table[:, 0] = sets
    table[:, 1] = counts
    table[:, 2] = 1.0
    scales = []
    for column, (metric, values) in enumerate(values_by_metric.items(), start=3):
        y = np.asarray(values, dtype=float)
        if y.shape != idx.shape:
            raise ConfigError(f"metric {metric!r}: wrong number of values")
        y_mean, y_std = _standardize(y)
        if not math.isfinite(y_mean):  # a NaN or infinite target
            raise ValueError("array must not contain infs or NaNs")
        sums = np.bincount(inverse, weights=y) if totals is None else totals.sums[metric]
        np.divide(sums, counts, out=table[:, column])
        scales.append((y_mean, y_std))
    rows.refit(sets, table, keys)
    return {
        metric: GPModel(space, sets, table[:, j + 3], cfg, y_mean, y_std, rows, j + 1)
        for j, (metric, (y_mean, y_std)) in enumerate(zip(keys, scales))
    }


def predict(
    model: GPModel, x: Union[int, ParameterSet, Sequence[float]]
) -> tuple[float, float]:
    """Posterior (mean, variance) at one parameter set, in metric units."""
    coords = model.space.normalized(x)
    mean, var = model.predict_coords(coords[None, :])
    return float(mean[0]), float(var[0])
