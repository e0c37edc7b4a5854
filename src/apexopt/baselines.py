"""Baseline next-test-point strategies used for comparison.

Three greedy rules share a lightweight quadratic least-squares surrogate
fitted to per-set medians: GEL exploits its minimum, GER round-robins the
space evenly, GUC targets the least-observed neighborhood. Two tabular
Q-learning policies move through the grid either one parameter step at a
time (rl-step) or by jumping to any set (rl-any), with an epsilon-greedy
action choice and a penalty for observations violating the constraints.

All strategies are deterministic functions of (history, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from apexopt.domain import ConfigError, ParameterSpace


def quadratic_features(coords: np.ndarray) -> np.ndarray:
    """Degree-2 polynomial features of (n, b) normalized coordinates."""
    coords = np.atleast_2d(coords)
    n, b = coords.shape
    cols = [np.ones(n)]
    for i in range(b):
        cols.append(coords[:, i])
    for i in range(b):
        for j in range(i, b):
            cols.append(coords[:, i] * coords[:, j])
    return np.column_stack(cols)


@dataclass
class SurrogateLite:
    """Quadratic least-squares fit to per-set medians of the goal value."""

    space: ParameterSpace
    coeffs: np.ndarray | None = None

    @classmethod
    def fit(cls, space: ParameterSpace, medians: Mapping[int, float]) -> "SurrogateLite":
        if not medians:
            return cls(space, None)
        idx = np.array(sorted(medians), dtype=int)
        y = np.array([medians[i] for i in idx], dtype=float)
        feats = quadratic_features(space.normalized_all()[idx])
        coeffs, *_ = np.linalg.lstsq(feats, y, rcond=None)
        return cls(space, coeffs)

    @property
    def fitted(self) -> bool:
        return self.coeffs is not None

    def predict(self, indices: Sequence[int]) -> np.ndarray:
        if self.coeffs is None:
            raise ConfigError("surrogate has no training data")
        coords = self.space.normalized_all()[np.asarray(indices, dtype=int)]
        return quadratic_features(coords) @ self.coeffs


def _sorted_pool(candidates: Iterable[int]) -> np.ndarray:
    return np.unique(np.asarray(list(candidates), dtype=int))


def random_open_set(
    space: ParameterSpace, exclude: frozenset[int], rng: np.random.Generator
) -> int:
    """A uniform draw over the sets not excluded, in ascending order.

    At least one set must be open.
    """
    pool = [i for i in range(space.n_sets) if i not in exclude]
    return int(pool[rng.integers(len(pool))])


def gel_select(g_n: SurrogateLite, candidates: Iterable[int]) -> int | None:
    """Exploit the fitted surrogate: argmin over the satisfying sets.

    None with no satisfying set or no fit yet; the caller then draws an
    open set at random.
    """
    pool = _sorted_pool(candidates)
    if pool.size == 0 or not g_n.fitted:
        return None
    return int(pool[np.argmin(g_n.predict(pool))])


def ger_select(n: int, space: ParameterSpace, seed: int) -> int:
    """n-th round-robin pick (1-based): a fresh permutation per epoch."""
    if n < 1:
        raise ConfigError("selection number must be >= 1")
    epoch, pos = divmod(n - 1, space.n_sets)
    perm = np.random.default_rng([seed, epoch]).permutation(space.n_sets)
    return int(perm[pos])


class GerSchedule:
    """Stateful even-exploration schedule; skips unavailable sets."""

    def __init__(self, space: ParameterSpace, seed: int):
        self.space = space
        self.seed = seed
        self._n = 0

    def select(self, exclude: frozenset[int] = frozenset()) -> int:
        for _ in range(self.space.n_sets * (len(exclude) + 2)):
            self._n += 1
            choice = ger_select(self._n, self.space, self.seed)
            if choice not in exclude:
                return choice
        raise ConfigError("all parameter sets are excluded")


def neighbor_indices(space: ParameterSpace, index: int) -> list[int]:
    """Sets differing by exactly one value step in exactly one dimension."""
    base = list(space.value_indices(index))
    sizes = space.sizes
    out = []
    for dim in range(space.dimension):
        for step in (-1, 1):
            pos = base[dim] + step
            if 0 <= pos < sizes[dim]:
                moved = base.copy()
                moved[dim] = pos
                out.append(int(np.ravel_multi_index(tuple(moved), sizes)))
    return out


def uncertainty_scores(
    space: ParameterSpace, counts: Mapping[int, int], candidates: Sequence[int]
) -> np.ndarray:
    """GUC's zeta: -2 per result at the set, -1 per result at a neighbor."""
    scores = np.zeros(len(candidates), dtype=float)
    for k, idx in enumerate(candidates):
        score = -2.0 * counts.get(int(idx), 0)
        for nb in neighbor_indices(space, int(idx)):
            score -= counts.get(nb, 0)
        scores[k] = score
    return scores


def guc_select(
    counts: Mapping[int, int],
    g_n: SurrogateLite,
    candidates: Iterable[int],
    space: ParameterSpace,
    rng: np.random.Generator,
) -> int | None:
    """Pick the most uncertain region, then the best fitted value within it.

    None with no candidate; the caller then draws an open set at random.
    """
    pool = _sorted_pool(candidates)
    if pool.size == 0:
        return None
    zeta = uncertainty_scores(space, counts, pool)
    most_uncertain = pool[zeta == zeta.max()]
    if not g_n.fitted:
        return int(most_uncertain[rng.integers(most_uncertain.size)])
    return int(most_uncertain[np.argmin(g_n.predict(most_uncertain))])


@dataclass
class QTable:
    """State-action value estimates for the RL baselines.

    An action is the index of the set it moves to. The table only grows
    with visited state-action pairs. The constraint penalty is not stored
    here; callers scale it to the currently observed goal range so it
    dominates without diverging.
    """

    learning_rate: float
    discount: float
    epsilon: float
    values: dict[int, dict[int, float]] = field(default_factory=dict)

    def get(self, state: int, action: int) -> float:
        return self.values.get(state, {}).get(action, 0.0)

    def best_value(self, state: int, actions: Sequence[int]) -> float:
        if not actions:
            return 0.0
        return max(self.get(state, a) for a in actions)

    def update(
        self,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        next_actions: Sequence[int],
    ) -> None:
        q = self.get(state, action)
        target = reward + self.discount * self.best_value(next_state, next_actions)
        new = q + self.learning_rate * (target - q)
        self.values.setdefault(state, {})[action] = new


class _RlPolicy:
    """Shared epsilon-greedy mechanics for the two RL baselines."""

    def __init__(
        self,
        space: ParameterSpace,
        rng: np.random.Generator,
        epsilon: float,
        learning_rate: float,
        discount: float,
    ):
        self.space = space
        self.rng = rng
        self.qtable = QTable(learning_rate, discount, epsilon)
        self.state: int | None = None
        self._pending: tuple[int, int] | None = None

    def legal_actions(self, state: int, exclude: frozenset[int]) -> list[int]:
        """The open sets reachable from ``state`` in one action."""
        raise NotImplementedError

    def propose(self, state: int, exclude: frozenset[int] = frozenset()) -> int:
        """Epsilon-greedy next set from ``state``; remembers it for update()."""
        actions = self.legal_actions(state, exclude)
        if not actions:
            # Every reachable set is unavailable: jump to any open set.
            target = random_open_set(self.space, exclude, self.rng)
        elif self.rng.random() < self.qtable.epsilon:
            target = actions[self.rng.integers(len(actions))]
        else:
            # Ties resolve to the lowest set index.
            target = min(actions, key=lambda a: (-self.qtable.get(state, a), a))
        self._pending = (state, target)
        return target

    def update(self, reward: float, next_state: int) -> None:
        """Temporal-difference update for the pending action, if any."""
        if self._pending is not None:
            state, action = self._pending
            next_actions = self.legal_actions(next_state, frozenset())
            self.qtable.update(state, action, reward, next_state, next_actions)
            self._pending = None
        self.state = next_state


class RlStepPolicy(_RlPolicy):
    """Adjust one parameter by one step at a time (or retain it)."""

    def legal_actions(self, state: int, exclude: frozenset[int]) -> list[int]:
        return [
            i for i in [state, *neighbor_indices(self.space, state)]
            if i not in exclude
        ]


class RlAnyPolicy(_RlPolicy):
    """Transition from any parameter set to any other in one action."""

    def legal_actions(self, state: int, exclude: frozenset[int]) -> list[int]:
        return [i for i in range(self.space.n_sets) if i not in exclude]
