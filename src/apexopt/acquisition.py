"""Next test-point selection.

Two acquisition rules over the GP goal surrogate: minimize the lower
confidence bound (mean - kappa * std), or maximize expected improvement
over the current-best goal value. Both can over-exploit when extreme
outliers sit near a minimum or when noisy constraint readings filter out
viable sets; a trap is flagged when the chosen point's acquisition score
(EI itself, or the coefficient of variation for LCB) falls below a tenth
of its running maximum. Two escape procedures then alternate until the
search recovers: discard the most-tested sets and re-select, or search
the currently-unsatisfying sets for the one most likely to satisfy the
constraints while still improving the goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from apexopt.domain import ParameterSet
from apexopt.surrogate import GPModel, predict

EPS_DIV = 1e-9
TRAP_FRACTION = 0.1

ESCAPE_GOAL = "goal-outlier"
ESCAPE_CONSTRAINT = "constraint-noise"


class NoCandidatesError(ValueError):
    """Raised when a selection is attempted over an empty candidate set."""


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)


_MINUS_SQRT_HALF = -math.sqrt(0.5)


def _cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-z / sqrt 2), elementwise over a 1-d
    array. Within 1 ulp of ``scipy.special.ndtr`` for z >= sqrt 2. Below
    that the rounding of z / sqrt 2 grows with z^2 in erfc: at most 14 ulp
    down to -5, 133 down to -20 and 516 down to -37.6, where the values
    turn subnormal."""
    erfc = np.fromiter(map(math.erfc, (z * _MINUS_SQRT_HALF).tolist()), float, len(z))
    return 0.5 * erfc


def lcb(model: GPModel, x: Union[int, ParameterSet, Sequence[float]],
        kappa_n: float) -> float:
    """Lower confidence bound at one parameter set."""
    mean, var = predict(model, x)
    return lcb_values(mean, math.sqrt(var), kappa_n)


def lcb_values(mean: np.ndarray, std: np.ndarray, kappa_n: float) -> np.ndarray:
    """Lower confidence bound mean - kappa_n * std: the GP-LCB score and
    the floor of the instant suboptimality. The one place it is written."""
    return mean - kappa_n * std


def ei_values(mean: np.ndarray, std: np.ndarray, f_best: float) -> np.ndarray:
    """Expected improvement below f_best; exactly 0 where std is 0."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improvement = f_best - mean
    out = np.zeros_like(mean)
    pos = std > 0.0
    z = improvement[pos] / std[pos]
    out[pos] = improvement[pos] * _cdf(z) + std[pos] * _phi(z)
    return np.maximum(out, 0.0)


def expected_improvement(
    model: GPModel, x: Union[int, ParameterSet, Sequence[float]], f_best: float
) -> float:
    mean, var = predict(model, x)
    return float(ei_values(np.array([mean]), np.array([math.sqrt(var)]), f_best)[0])


def _as_candidates(candidates: Sequence[int]) -> np.ndarray:
    arr = np.unique(np.asarray(list(candidates), dtype=int))
    if arr.size == 0:
        raise NoCandidatesError("empty candidate set")
    return arr  # sorted, so argmin/argmax ties resolve to the lowest index


def select(
    kind: str,
    candidates: np.ndarray,
    mean: np.ndarray,
    std: np.ndarray,
    kappa_n: float,
    f_best: float,
) -> tuple[int, float]:
    """Best candidate under one acquisition rule, and its trap score.

    ``mean`` and ``std`` are aligned with ``candidates``. "gp-lcb"
    minimizes the LCB and scores the choice by its coefficient of
    variation; "ei" maximizes EI and scores the choice by its EI. Ties
    break to the first candidate.
    """
    if len(candidates) == 0:
        raise NoCandidatesError("empty candidate set")
    if kind == "gp-lcb":
        pos = int(np.argmin(lcb_values(mean, std, kappa_n)))
        return int(candidates[pos]), coefficient_of_variation(mean[pos], std[pos])
    ei = ei_values(mean, std, f_best)
    pos = int(np.argmax(ei))
    return int(candidates[pos]), float(ei[pos])


def coefficient_of_variation(mean: float, std: float) -> float:
    """Relative spread of the selected point, guarded near mean 0."""
    return std / max(abs(mean), EPS_DIV)


@dataclass
class NtsState:
    """Running maximum of the trap score and the alternating escape mode.

    A run uses one acquisition rule, so it tracks one score: EI, or the
    coefficient of variation for LCB. The maximum grows monotonically
    over one optimization run; the trap threshold is a tenth of it. The
    escape mode starts at the goal-outlier procedure and flips on every
    trapped iteration.
    """

    score_max: float = 0.0
    escape_mode: str = ESCAPE_GOAL

    def observe(self, score: float) -> None:
        self.score_max = max(self.score_max, score)

    def next_escape(self) -> str:
        mode = self.escape_mode
        self.escape_mode = (
            ESCAPE_CONSTRAINT if mode == ESCAPE_GOAL else ESCAPE_GOAL
        )
        return mode


def detect_trap(state: NtsState, chosen_score: float) -> bool:
    """True when the chosen score dropped below a tenth of its running max.

    The running maximum must already include the current score, so the
    first iteration can never trip its own threshold.
    """
    return chosen_score < state.score_max * TRAP_FRACTION


def escape_goal_outlier(
    counts: Mapping[int, int],
    candidates: Sequence[int],
    select_fn: Callable[[Sequence[int]], int],
) -> int:
    """Re-select after discarding the most-tested candidate sets.

    Every candidate whose observation count equals the maximum count is
    removed; if that empties the pool, the full candidate set is used.
    """
    cand = _as_candidates(candidates)
    n_obs = np.array([counts.get(i, 0) for i in cand.tolist()])
    keep = cand[n_obs < n_obs.max()]
    return select_fn(keep if keep.size else cand)


def delta_metric(
    lcb_c: float, f_c_plus: float, improvement: float, f_best: float
) -> float:
    """Constraint-escape score: feasibility bound vs. goal improvement.

    Both terms are normalized by the magnitude of their current-best
    observation (guarded away from zero) so the ordering survives
    canonical sign flips of either metric. ``lcb_c`` and ``improvement``
    may be arrays over candidate sets.
    """
    return lcb_c / max(abs(f_c_plus), EPS_DIV) - improvement / max(
        abs(f_best), EPS_DIV
    )


def escape_constraint(
    goal_mean: np.ndarray,
    constraint_models: Mapping[str, GPModel],
    unsatisfying: Sequence[int],
    f_c_plus: Mapping[str, float],
    f_best: float,
    kappa_n: float,
) -> int:
    """Pick, among currently-unsatisfying sets, the best feasibility bet.

    Per set and constraint: LCB of the constraint surrogate normalized by
    the capped best constraint observation, minus the predicted goal
    improvement normalized by the best goal value. With multiple
    constraints each set keeps its minimum; the overall argmin wins,
    lowest index on ties. ``goal_mean`` is the goal surrogate's mean over
    every set.
    """
    cand = _as_candidates(unsatisfying)
    improvement = f_best - goal_mean[cand]
    best_delta = np.full(cand.shape, np.inf)
    for metric, model in constraint_models.items():
        mean, var = model.predict_sets(cand)
        lcb_c = lcb_values(mean, np.sqrt(var), kappa_n)
        delta = delta_metric(lcb_c, f_c_plus[metric], improvement, f_best)
        best_delta = np.minimum(best_delta, delta)
    return int(cand[np.argmin(best_delta)])
