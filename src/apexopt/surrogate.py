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

:class:`KernelRows` is the run's GP state and the one owner of the
per-set statistics. A fit passes the whole trial trace, which only ever
grows; the state folds in the trials it has not seen, adding each to its
set's trial count and target sums. The grid and the hyperparameters are
fixed for a run, so the covariance between two sets never changes: a
set's row of the kernel against the whole grid is computed once, when the
set is first tried. The state also keeps the run's Cholesky factor L from
one fit to the next, rows in the order the sets were first tried, with
V = L^-1 K[tried sets, every set] and L^-1 [1 | per-metric set means].
A trial changes one set, so a fit refactors only the trailing rows from
that set's row on: a new set is one appended row, O(m n_sets) for m
distinct sets, and a repeat of the i-th set costs O((m - i) m n_sets)
(blocked right-looking Cholesky, Golub & Van Loan section 4.2; each
appended row is one triangular solve, GPML Alg. 2.1). Predictions at grid
sets read V, with no solve. A fit without kept rows folds every trial
into a fresh state and factors from row 0.

The factorization calls LAPACK ``potrf`` and the solves BLAS ``trsm``
directly, in the OpenBLAS that SciPy's wheel bundles, through ``ctypes``
(:func:`dpotrf`, :func:`dtrsm`): importing ``scipy.linalg`` for its two
wrappers would cost half of the package's import time. The bindings take
the arguments of those wrappers and give their bits. Where that library
is not found, the wrappers themselves are used. The last bits depend on
OpenBLAS's thread count, so a run's numerics go inside
:func:`one_blas_thread`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, Union

import numpy as np

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
    """The run's GP state: its trials grouped by set, the kernel rows of the
    sets tried and the kept Cholesky factor.

    It is the one owner of the per-set statistics. Rows are in slot order,
    the order in which the sets were first tried, and per row it keeps the
    set, its trial count, its per-metric target sums (accumulated in trial
    order from 0.0, the bits ``np.bincount`` gives), its row
    ``kernel_matrix(cfg, coords[[set]], coords)`` against the whole grid
    (each entry computed pair by pair, so any block read from the rows
    equals ``kernel_matrix`` on that block bitwise), the Cholesky factor L
    of the sets' noisy covariance and ``[V | w] = L^-1 [K[sets, every set]
    | 1 | per-metric set means]``. Memory is (distinct sets tried) x
    n_sets: the full n_sets x n_sets matrix is never built. One instance
    serves one run (one space and one kernel configuration).

    The trace is append-only: each :meth:`refit` passes every trial of the
    previous one, in the same order and under the same metric names, and
    only the trials past those are folded in.
    """

    def __init__(self, space: ParameterSpace, cfg: KernelConfig):
        self.space = space
        self.cfg = cfg
        # Each set's slot, -1 until it is tried.
        self._slot = np.full(space.n_sets, -1, dtype=np.intp)
        # Per slot: the set and [trial count | per-metric target sums].
        self._order = np.empty(0, dtype=np.intp)
        self._totals = np.empty((0, 1))
        self._folded = 0
        self._keys: tuple[str, ...] = ()
        # Buffers with a row per slot: the kernel rows, L (``lower[:m, :m]``,
        # lower triangle) and [V | w]; then the jitter L was built with and
        # the standardized posterior variance at every set.
        self._rows = np.empty((0, space.n_sets))
        self._lower = np.empty((0, 0))
        self._vw = np.empty((0, space.n_sets + 1))
        self._jitter: float | None = None
        self._var = np.empty(0)
        # Bumped by every refit; a model of an earlier fit is stale.
        self.generation = 0

    def __len__(self) -> int:
        return len(self._order)

    def tried(self) -> np.ndarray:
        """Whether each set has been tried, as a boolean array."""
        return self._slot >= 0

    def refit(self, set_indices: np.ndarray, targets: Sequence[np.ndarray],
              keys: tuple[str, ...]) -> None:
        """Fold the trials past those already held and refactor the rows
        they change.

        ``set_indices`` and ``targets`` (one array per metric named by
        ``keys``) are the whole trace. A new set takes the next slot, so
        the first refactored row i is the lowest slot a new trial touches,
        or 0 when the kept factor holds another jitter. With L11 kept, the
        trailing rows are L21 = ``V[:i, sets[i:]]^T`` (no solve),
        L22 = chol(A22 - L21 L21^T), and ``[V | w]`` of rows i.. from one
        triangular solve against ``[K[sets[i:]] | 1 | means[i:]] - L21
        [V | w][:i]``. Each fit tries ``cfg.jitter`` first; a failed
        factorization escalates the jitter tenfold and refactors from
        row 0. The standardized variance at every set, k** - sum V^2, is
        checked against the numerical floor before anything is kept, so a
        FitError (or a ConfigError) leaves the state as it was.
        """
        done, m = self._folded, len(self._order)
        if len(set_indices) < done or (done and keys != self._keys):
            raise ConfigError(
                f"kernel rows hold {done} trials of {list(self._keys)}; a fit "
                "on them must pass those trials and may only add more"
            )
        # The new trials, one at a time: [count | sums] per slot touched.
        n_sets = self.space.n_sets
        columns = [y[done:].tolist() for y in targets]
        added: dict[int, int] = {}
        touched: dict[int, list[float]] = {}
        for t, s in enumerate(set_indices[done:].tolist()):
            if not 0 <= s < n_sets:
                raise ConfigError(f"set index {s} is not one of the sets 0..{n_sets - 1}")
            slot = int(self._slot[s])
            if slot < 0:
                slot = added.setdefault(s, m + len(added))
            acc = touched.get(slot)
            if acc is None:
                acc = touched[slot] = (self._totals[slot].tolist() if slot < m
                                       else [0.0] * (1 + len(columns)))
            acc[0] += 1.0
            for j, column in enumerate(columns, start=1):
                acc[j] += column[t]
        totals = np.empty((m + len(added), 1 + len(columns)))
        if m:
            totals[:m] = self._totals
        for slot, acc in touched.items():
            totals[slot] = acc
        order, k_new = self._order, None
        if added:
            new = np.fromiter(added, dtype=np.intp, count=len(added))
            order = np.concatenate((order, new))
            coords = self.space.normalized_all()
            k_new = kernel_matrix(self.cfg, coords[new], coords)

        jitter = self.cfg.jitter
        start = min(touched, default=m) if self._jitter == jitter else 0
        while (tail := self._trailing(start, order, totals, k_new, jitter)) is None:
            jitter *= 10.0
            if jitter > MAX_JITTER:
                raise FitError(
                    "covariance matrix is not positive definite even with "
                    f"jitter {MAX_JITTER:g}; training data is degenerate"
                )
            start = 0
        l21, l22, vw = tail
        v = vw[:, :n_sets]
        sumsq = np.einsum("ij,ij->j", v, v)
        if start:
            v = self._vw[:start, :n_sets]
            sumsq += np.einsum("ij,ij->j", v, v)
        var_s = _variance_floor(self.cfg, self.cfg.signal_variance - sumsq)

        # Commit: nothing above changed the kept state.
        m_new = len(order)
        if keys != self._keys:
            self._vw = np.empty((len(self._lower), vw.shape[1]))
        if m_new > len(self._lower):
            self._rows = _grown(self._rows, m_new, n_sets, m)
            self._lower = _grown(self._lower, m_new, n_sets, start, square=True)
            self._vw = _grown(self._vw, m_new, n_sets, start)
        if added:
            self._rows[m:m_new] = k_new
            self._slot[new] = np.arange(m, m_new)
        self._lower[start:m_new, :start] = l21
        self._lower[start:m_new, start:m_new] = l22
        self._vw[start:m_new] = vw
        self._order, self._totals = order, totals
        self._folded, self._keys, self._jitter = len(set_indices), keys, jitter
        self._var = var_s
        self.generation += 1

    def _trailing(self, start: int, order: np.ndarray, totals: np.ndarray,
                  k_new: np.ndarray | None, jitter: float):
        """(L21, L22, [V | w]) of rows ``start..``; None when L22 does not
        exist. Reads the kept factor and writes nothing to it."""
        m, n = len(self._order), self.space.n_sets
        tail = order[start:]
        # b = [K[tail, every set] | 1 | set means].
        b = np.empty((len(tail), n + totals.shape[1]))
        b[: m - start, :n] = self._rows[start:m]
        if k_new is not None:
            b[m - start:, :n] = k_new
        b[:, n] = 1.0
        np.divide(totals[start:, 1:], totals[start:, :1], out=b[:, n + 1:])
        # Row i is the mean of counts[i] readings of one set, so its noise
        # (and the jitter that stands in for noise) is divided by the count.
        a22 = b[:, tail]
        a22.flat[:: len(tail) + 1] += (self.cfg.noise_variance + jitter) / totals[start:, 0]
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


def _bundled_openblas(package: str) -> list[Path]:
    """The OpenBLAS libraries that a Linux wheel of ``package`` bundles in
    ``<package>.libs``, found without importing the package."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return []
    pkg_dir = Path(spec.origin).parent
    return sorted((pkg_dir.parent / f"{pkg_dir.name}.libs").glob("libscipy_openblas*.so*"))


def _pointer(a: np.ndarray) -> Any:
    """A pointer to the data of the writable, Fortran-ordered ``a``; NULL
    when it is empty."""
    return ctypes.byref(ctypes.c_char.from_buffer(a.T)) if a.size else None


@functools.cache
def _int_ref(value: int) -> Any:
    """A pointer to a C int holding ``value``. Fortran takes its integer
    arguments by reference; potrf and trsm only read the sizes, so one
    object per value serves every call."""
    return ctypes.byref(ctypes.c_int(value))


_ONE = ctypes.byref(ctypes.c_double(1.0))


def _bind(potrf: Any, trsm: Any) -> tuple[Callable, Callable]:
    """``dpotrf`` and ``dtrsm`` with the arguments and results of SciPy's
    f2py wrappers, calling the Fortran routines ``potrf`` and ``trsm``.

    As in f2py, ``potrf`` factors a Fortran-ordered copy of ``a``, ``trsm``
    solves in a Fortran-ordered copy of ``b`` (in ``b`` itself when
    ``overwrite_b`` is set and ``b`` is Fortran-ordered) and every leading
    dimension is at least 1. The routines get no ``argtypes``: ctypes'
    per-argument conversion took 2.3 us of a 3.2 us ``trsm`` call. Each
    argument is made here instead, as bytes, a ``byref`` pointer or NULL.
    """
    potrf.restype = trsm.restype = None

    def dpotrf(a: np.ndarray, lower: int = 0, clean: int = 1) -> tuple[np.ndarray, int]:
        c = np.array(a, dtype=float, order="F")
        n = len(c)
        if c.shape != (n, n):
            raise ValueError(f"potrf needs a square matrix, not {c.shape}")
        info = ctypes.c_int()
        potrf(b"L" if lower else b"U", _int_ref(n), _pointer(c), _int_ref(max(1, n)),
              ctypes.byref(info))
        if clean:
            c[np.triu_indices(n, 1) if lower else np.tril_indices(n, -1)] = 0.0
        return c, info.value

    def dtrsm(alpha: float, a: np.ndarray, b: np.ndarray, side: int = 0, lower: int = 0,
              trans_a: int = 0, diag: int = 0, overwrite_b: int = 0) -> np.ndarray:
        a = np.asarray(a, dtype=float, order="F")
        b = np.array(b, dtype=float, order="F", copy=None if overwrite_b else True)
        m, n = b.shape
        k = n if side else m
        if a.shape != (k, k):
            raise ValueError(f"trsm needs a {k} x {k} triangular matrix, not {a.shape}")
        trsm(b"R" if side else b"L", b"L" if lower else b"U", b"T" if trans_a else b"N",
             b"U" if diag else b"N", _int_ref(m), _int_ref(n),
             _ONE if alpha == 1.0 else ctypes.byref(ctypes.c_double(alpha)),
             _pointer(a), _int_ref(max(1, k)), _pointer(b), _int_ref(max(1, m)))
        return b

    return dpotrf, dtrsm


def _linalg_routines(libraries: Sequence[Path]) -> tuple[Callable, Callable]:
    """(dpotrf, dtrsm): bound to the first of ``libraries`` that exports
    SciPy's ``scipy_dpotrf_`` and ``scipy_dtrsm_``, or else SciPy's f2py
    wrappers of the same routines from ``scipy.linalg``."""
    for path in libraries:
        try:
            lib = ctypes.CDLL(str(path))
            return _bind(lib.scipy_dpotrf_, lib.scipy_dtrsm_)
        except (OSError, AttributeError):
            continue
    from scipy.linalg.blas import dtrsm
    from scipy.linalg.lapack import dpotrf

    return dpotrf, dtrsm


# SciPy's copy, not NumPy's: the two wheels bundle different OpenBLAS
# versions, and only SciPy's gives the bits of scipy.linalg's wrappers.
dpotrf, dtrsm = _linalg_routines(_bundled_openblas("scipy"))

# NumPy and SciPy wheels each bundle their own OpenBLAS, with its own
# thread setting: (package, symbol suffix) per copy.
_BUNDLED_OPENBLAS = (("numpy", "64_"), ("scipy", ""))


@functools.cache
def _blas_thread_controls() -> tuple[tuple[Any, Any], ...]:
    """(getter, setter) of the thread count of each OpenBLAS copy bundled
    with NumPy or SciPy. A copy that is not found or lacks either function
    (another BLAS build) is left out. Looked up once per process."""
    controls = []
    for package, suffix in _BUNDLED_OPENBLAS:
        for path in _bundled_openblas(package):
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
    """Run the block with the bundled OpenBLAS copies on one thread: SciPy's,
    which runs :func:`dpotrf` and :func:`dtrsm`, and NumPy's, which runs
    the matrix products.

    One run's matrices are small: a second thread only spins beside it,
    and it changes the last bits of ``potrf`` and ``trsm``, so a
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
    """A fitted GP for one metric: the target standardization and a column
    of the fit's kernel rows, which hold the sets tried and their means.

    Predictions read the kept factor of the fit's kernel rows, so a model
    is valid until the next fit on the same rows; reading it after that
    raises RuntimeError.
    """

    def __init__(
        self,
        space: ParameterSpace,
        cfg: KernelConfig,
        y_mean: float,
        y_std: float,
        rows: KernelRows,
        column: int,
    ):
        self.space = space
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

    @property
    def train_sets(self) -> np.ndarray:
        """The distinct sets tried, ascending."""
        return np.sort(self._kept()._order)

    @property
    def set_means(self) -> np.ndarray:
        """The mean target of each set in ``train_sets``."""
        rows = self._kept()
        totals = rows._totals[rows._order.argsort()]
        return totals[:, self._column] / totals[:, 0]

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
        m = len(rows)
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
        return self._posterior(rows._vw[: len(rows), cols], rows._var[cols])

    def predict_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (metric units) at every grid set."""
        rows = self._kept()
        v = rows._vw[: len(rows), : self.space.n_sets]
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
) -> dict[str, GPModel]:
    """Fit one GP per metric over shared inputs, factorizing K only once.

    Valid because standardization affects targets only: the kernel matrix
    and its noise term live on the shared normalized-input / standardized-
    output scale for every metric. The set indices and values are the
    whole trial trace. ``rows`` is the run's GP state (built for this
    space and ``cfg``), whose trace this one extends: only the trials past
    those it holds are folded in and only the rows they change are
    refactored (:meth:`KernelRows.refit`); the models of its previous fit
    are stale from now on. A shorter trace or other metric names raise
    ConfigError. Without ``rows`` a fresh state folds every trial.
    """
    if rows is None:
        rows = KernelRows(space, cfg)
    elif rows.space is not space or rows.cfg != cfg:
        raise ConfigError("kernel rows belong to another space or kernel")
    idx = np.asarray(set_indices, dtype=int)
    if idx.size == 0:
        raise ConfigError("cannot fit a GP to zero observations")
    targets, scales = [], []
    for metric, values in values_by_metric.items():
        y = np.asarray(values, dtype=float)
        if y.shape != idx.shape:
            raise ConfigError(f"metric {metric!r}: wrong number of values")
        y_mean, y_std = _standardize(y)
        if not math.isfinite(y_mean):  # a NaN or infinite target
            raise ValueError("array must not contain infs or NaNs")
        targets.append(y)
        scales.append((y_mean, y_std))
    keys = tuple(values_by_metric)
    rows.refit(idx, targets, keys)
    return {
        metric: GPModel(space, cfg, y_mean, y_std, rows, column)
        for column, (metric, (y_mean, y_std)) in enumerate(zip(keys, scales), start=1)
    }


def predict(
    model: GPModel, x: Union[int, ParameterSet, Sequence[float]]
) -> tuple[float, float]:
    """Posterior (mean, variance) at one parameter set, in metric units."""
    coords = model.space.normalized(x)
    mean, var = model.predict_coords(coords[None, :])
    return float(mean[0]), float(var[0])
