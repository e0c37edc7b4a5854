"""Confidence metrics for the returned solution.

Two quantities are reported at every trial:

* robustness ``beta``: via binomial order statistics, the confidence that
  the chosen set's true percentile satisfies a constraint, given how many
  of its observed values do;
* optimality ``alpha``: the confidence that no better set remains, read
  off the tangent angle of a saturating-exponential fit to the cumulative
  suboptimality trend. A 45-degree tangent (constant growth) maps to 0,
  a flat tangent to 100.

Two simpler baseline optimality metrics (value stability, and a blend of
value and parameter stability) are included for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from apexopt.acquisition import lcb_values
from apexopt.domain import (
    CanonicalConstraint,
    ConfigError,
    ParameterSpace,
    max_distance,
    normalized_distance,
)

B_MIN = 0.01
B_MAX = 100.0
_GRID_POINTS = 200


def robustness_beta(
    values: Sequence[float], constraint: CanonicalConstraint
) -> float:
    """Confidence that the constrained percentile is on the safe side.

    With N observed values of which l satisfy the canonical constraint,
    the nonparametric bound is sum_{k=0}^{l-1} C(N,k) p^k (1-p)^(N-k).
    """
    if len(values) == 0:
        raise ConfigError("robustness_beta needs at least one value")
    n = len(values)
    l = sum(1 for v in values if constraint.satisfied(v))
    p = constraint.percentile
    total = 0.0
    for k in range(l):
        total += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return min(total, 1.0)


def kappa(n: int, space_size: int, delta: float) -> float:
    """Confidence-bound calibration factor for trial n on a finite space."""
    if n < 1 or space_size < 1:
        raise ConfigError("kappa requires n >= 1 and space_size >= 1")
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must be in (0, 1)")
    return math.sqrt(2.0 * math.log(space_size * n**2 * math.pi**2 / (6.0 * delta)))


def instant_suboptimality(
    best_median: float, mean: np.ndarray, std: np.ndarray, kappa_n: float
) -> float:
    """Gap between the best observed median and the lowest confidence bound.

    ``mean`` and ``std`` are the goal posterior over the candidate sets;
    the floor is their lowest LCB (``lcb_values``). May be negative when the
    median sits below the model's floor; callers record it as-is.
    Undefined candidate sets or best values are handled by the caller
    (the engine carries the previous value forward).
    """
    if len(mean) == 0:
        raise ConfigError("instant_suboptimality needs a non-empty candidate set")
    return best_median - float(np.min(lcb_values(mean, std, kappa_n)))


# The fitted curve is (1 - exp(-b x)) / (1 - exp(-b)), computed as
# np.expm1(-b * x) / np.expm1(-b), which is stable for small b.


def _sse(
    b: float, x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
) -> float:
    # Squared residuals of the curve at rate b against y, summed; computed
    # in ``out`` (an array shaped like x) when given.
    r = np.multiply(-b, x, out=out)
    np.expm1(r, out=r)
    r /= np.expm1(-b)
    r -= y
    return float(r @ r)


_GRID = np.logspace(math.log10(B_MIN), math.log10(B_MAX), _GRID_POINTS)
_NEG_GRID = -_GRID[:, None]
_GRID_DENOMS = np.expm1(-_GRID)[:, None]

# optimality_alpha fits on x = arange(n) / (n - 1), so its grid curve
# matrix depends on n alone. The matrices for n <= _CURVE_CACHE_MAX_N are
# kept, at 200 * 8 * n bytes each: 1.88 MB for n = 3..48. A longer trace
# builds its matrix on each call.
_CURVE_CACHE_MAX_N = 48
_curve_cache: dict[int, np.ndarray] = {}


def _grid_curves(x: np.ndarray) -> np.ndarray:
    """The curve at every grid rate, one row per rate: bit for bit
    np.expm1(-b * x) / np.expm1(-b) with b = _GRID[:, None]."""
    out = np.multiply(_NEG_GRID, x)
    np.expm1(out, out=out)
    return np.divide(out, _GRID_DENOMS, out=out)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALS = 500


def _sign1(v: float) -> float:
    return -1.0 if v < 0.0 else 1.0


def minimize_bounded(
    func: Callable[[float], float], lo: float, hi: float, xatol: float
) -> tuple[float, float]:
    """Brent's bounded scalar minimizer (Brent 1973): (x, func(x)).

    Golden-section steps with parabolic interpolation on [lo, hi], at
    most 500 evaluations. Step for step the loop of SciPy's
    ``minimize_scalar(method="bounded")``, in Python floats, so it
    returns the same x and f(x).
    """
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Parabola through the three best points.
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign1(xm - xf)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + _sign1(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return xf, fx


def _fit_on_grid(x: np.ndarray, y: np.ndarray, curves: np.ndarray) -> float:
    """Least-squares rate of y = (1-exp(-bx))/(1-exp(-b)) on [0,1] data,
    given ``curves`` = _grid_curves(x).

    A coarse log-spaced grid is refined with a bounded scalar minimizer
    around the best grid cell.
    """
    residuals = curves - y
    errors = np.einsum("ij,ij->i", residuals, residuals)
    best = int(np.argmin(errors))
    lo = _GRID[max(best - 1, 0)]
    hi = _GRID[min(best + 1, len(_GRID) - 1)]
    if lo == hi:
        return float(_GRID[best])
    buf = np.empty(len(x))
    b, sse = minimize_bounded(lambda b: _sse(b, x, y, buf), lo, hi, 1e-6)
    return b if sse <= errors[best] else float(_GRID[best])


def tangent_angle_deg(b: float) -> float:
    """Tangent angle at x = 1 of the saturating exponential, in degrees."""
    slope = b * math.exp(-b) / -math.expm1(-b)
    return math.degrees(math.atan(slope))


def alpha_from_angle(theta_deg: float) -> float:
    """Map a tangent angle to confidence: 45 degrees -> 0, flat -> 100."""
    capped = min(45.0, theta_deg)
    return 100.0 * (1.0 - capped / 45.0)


@dataclass
class SuboptimalityTrace:
    """Per-trial instant suboptimality and its running sum."""

    taus: list[float] = field(default_factory=list)
    cumulative: list[float] = field(default_factory=list)

    def record(self, tau: float | None) -> float:
        """Append one trial's value; None carries the previous one forward."""
        if tau is None:
            tau = self.taus[-1] if self.taus else 0.0
        total = (self.cumulative[-1] if self.cumulative else 0.0) + tau
        self.taus.append(tau)
        self.cumulative.append(total)
        return tau

    def __len__(self) -> int:
        return len(self.taus)


def optimality_alpha(trace: SuboptimalityTrace) -> tuple[float, float]:
    """Optimality confidence in [0, 100] and the capped tangent angle.

    Both the trial axis and the cumulative values are normalized to
    [0, 1] before fitting; with fewer than 3 points there is no trend to
    read, so confidence is 0. A flat (degenerate) trend is perfectly
    saturated: confidence 100.
    """
    n = len(trace)
    if n < 3:
        return 0.0, 45.0
    cumulative = trace.cumulative
    lo, hi = min(cumulative), max(cumulative)
    if hi == lo:
        return 100.0, 0.0
    x = np.arange(n, dtype=float) / (n - 1)
    y = (np.asarray(cumulative, dtype=float) - lo) / (hi - lo)
    curves = _curve_cache.get(n)
    if curves is None:
        curves = _grid_curves(x)
        if n <= _CURVE_CACHE_MAX_N:
            curves.flags.writeable = False
            _curve_cache[n] = curves
    b = _fit_on_grid(x, y, curves)
    theta = min(45.0, tangent_angle_deg(b))
    return alpha_from_angle(theta), theta


def alpha_b1(current_best: float, previous_best: float, goal_range: float) -> float:
    """Value-stability optimality baseline in [0, 100].

    Uses the absolute change of the best goal value normalized by the
    currently observed goal range; a literal signed reading could exceed
    100 for improving minimization, so the change is taken in magnitude
    and the result clamped.
    """
    if goal_range <= 0.0:
        return 100.0
    ratio = abs(current_best - previous_best) / goal_range
    return min(max((1.0 - ratio) * 100.0, 0.0), 100.0)


def alpha_b2(
    alpha_b1_value: float,
    space: ParameterSpace,
    current_set: int,
    previous_set: int,
    eta: float = 0.5,
) -> float:
    """Blend of value stability and parameter stability in [0, 100]."""
    if not 0.0 < eta < 1.0:
        raise ConfigError("eta must be in (0, 1)")
    d = normalized_distance(space, current_set, previous_set)
    stability = 1.0 - d / max_distance(space)
    blended = eta * (alpha_b1_value / 100.0) + (1.0 - eta) * stability
    return min(max(blended * 100.0, 0.0), 100.0)
