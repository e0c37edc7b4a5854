"""The optimization loop.

One run proceeds as: initial sampling (user suggestions first, then a
space-filling design), then repeatedly fit GP surrogates to the canonical
observations, track the best satisfying set, update the confidence
metrics, check termination, pick the next test point (with trap detection
and the alternating escape procedures for the GP selectors), and execute
one trial.

Analysis is factored into :class:`AnalysisState`: the selectors read its
attributes, and each update returns the trial's :class:`Confidence`
record. The records are pure functions of the observation prefix, so
``reanalyze`` recomputes them from a persisted trial log.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from apexopt import acquisition, baselines, confidence, surrogate
from apexopt.domain import (
    CanonicalForm,
    ConfigError,
    Observation,
    ParameterSet,
    ParameterSpace,
    Requirement,
    TerminationCriteria,
    canonicalize,
    is_metric_value,
    is_set_index,
)
from apexopt.executor import DatasetExhausted, ExecutorError
from apexopt.surrogate import GPModel, KernelConfig

SELECTOR_ALIASES = {
    "gp-lcb": "gp-lcb",
    "apex-lcb": "gp-lcb",
    "lcb": "gp-lcb",
    "ei": "ei",
    "apex-ei": "ei",
    "gel": "gel",
    "ger": "ger",
    "guc": "guc",
    "rl-step": "rl-step",
    "rl-any": "rl-any",
}

INIT_STRATEGIES = ("suggestions", "latin-hypercube", "sobol", "random")
RL_SELECTORS = ("rl-step", "rl-any")


def normalize_selector(name: str) -> str:
    try:
        return SELECTOR_ALIASES[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown selector {name!r}; choose one of "
            f"{sorted(set(SELECTOR_ALIASES))}"
        ) from None


@dataclass(frozen=True)
class EngineConfig:
    space: ParameterSpace
    requirement: Requirement
    termination: TerminationCriteria
    selector: str = "gp-lcb"
    n_init: int = 6
    init_strategy: str = "random"
    suggestions: tuple[ParameterSet, ...] = ()
    delta: float = 0.1
    kernel: KernelConfig = field(default_factory=KernelConfig)
    seed: int = 0
    rl_epsilon: float = 0.05
    rl_learning_rate: float = 0.1
    rl_discount: float = 0.9

    def __post_init__(self) -> None:
        object.__setattr__(self, "selector", normalize_selector(self.selector))
        object.__setattr__(self, "suggestions", tuple(self.suggestions))
        if self.n_init < 1:
            raise ConfigError("n_init must be >= 1")
        if self.init_strategy not in INIT_STRATEGIES:
            raise ConfigError(
                f"unknown init strategy {self.init_strategy!r}; "
                f"choose one of {INIT_STRATEGIES}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must be in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        # Written so that NaN fails every check.
        if not 0.0 <= self.rl_epsilon <= 1.0:
            raise ConfigError("rl_epsilon must be in [0, 1]")
        if not 0.0 < self.rl_learning_rate <= 1.0:
            raise ConfigError("rl_learning_rate must be in (0, 1]")
        if not 0.0 <= self.rl_discount <= 1.0:
            raise ConfigError("rl_discount must be in [0, 1]")


def initial_sample(
    space: ParameterSpace,
    n_init: int,
    strategy: str,
    suggestions: Sequence[ParameterSet],
    rng: np.random.Generator,
) -> list[int]:
    """Pick the initial test sets: suggestions first, design fill after.

    The fill strategy never duplicates a set; "suggestions" requires the
    user to supply at least n_init of them.
    """
    if n_init > space.n_sets:
        raise ConfigError(
            f"n_init {n_init} exceeds the number of parameter sets {space.n_sets}"
        )
    chosen: list[int] = []
    for s in suggestions:
        idx = space.index_of(s)
        if idx in chosen:
            raise ConfigError(f"duplicate suggestion {s.values}")
        chosen.append(idx)
    if len(chosen) >= n_init:
        return chosen[:n_init]
    need = n_init - len(chosen)
    if strategy == "suggestions":
        raise ConfigError(
            f"init strategy 'suggestions' needs {n_init} suggested sets, "
            f"got {len(chosen)}"
        )
    if strategy == "random":
        fill = _random_fill(space, need, chosen, rng)
    elif strategy == "latin-hypercube":
        fill = _latin_hypercube_fill(space, need, chosen, rng)
    else:
        fill = _sobol_fill(space, need, chosen, rng)
    return chosen + fill


def _random_fill(
    space: ParameterSpace, need: int, taken: Sequence[int], rng: np.random.Generator
) -> list[int]:
    unused = np.array([i for i in range(space.n_sets) if i not in set(taken)])
    picked = rng.choice(unused, size=need, replace=False)
    return [int(i) for i in picked]


def _latin_hypercube_fill(
    space: ParameterSpace, need: int, taken: Sequence[int], rng: np.random.Generator
) -> list[int]:
    # One stratum per sample and dimension; a permutation decouples the
    # strata across dimensions.
    per_dim = []
    for size in space.sizes:
        u = (np.arange(need) + rng.random(need)) / need
        cells = np.minimum((u * size).astype(int), size - 1)
        per_dim.append(rng.permutation(cells))
    candidates = [
        int(np.ravel_multi_index(tuple(int(per_dim[d][k]) for d in range(space.dimension)),
                                 space.sizes))
        for k in range(need)
    ]
    return _dedupe_fill(space, need, taken, candidates, rng)


def _sobol_fill(
    space: ParameterSpace, need: int, taken: Sequence[int], rng: np.random.Generator
) -> list[int]:
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=space.dimension, scramble=True, seed=rng)
    candidates: list[int] = []
    draw = max(need, 4)
    for _ in range(8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            points = sampler.random(draw)
        for row in points:
            cell = tuple(
                min(int(row[d] * space.sizes[d]), space.sizes[d] - 1)
                for d in range(space.dimension)
            )
            candidates.append(int(np.ravel_multi_index(cell, space.sizes)))
        unique_new = [c for c in dict.fromkeys(candidates) if c not in set(taken)]
        if len(unique_new) >= need:
            break
        draw *= 2
    return _dedupe_fill(space, need, taken, candidates, rng)


def _dedupe_fill(
    space: ParameterSpace,
    need: int,
    taken: Sequence[int],
    candidates: Sequence[int],
    rng: np.random.Generator,
) -> list[int]:
    seen = set(taken)
    out: list[int] = []
    for c in candidates:
        if c not in seen:
            seen.add(c)
            out.append(c)
        if len(out) == need:
            return out
    remainder = _random_fill(space, need - len(out), sorted(seen), rng)
    return out + remainder


def current_best(
    satisfying: Sequence[int],
    goal_medians: Mapping[int, float],
    counts: Mapping[int, int],
    previous_reported: int | None,
) -> tuple[int | None, int | None]:
    """Best-median satisfying set, and the sticky reported best.

    The reported best only moves to a new set when that set has at least
    as many test results as the current reported one, preventing outlier-
    driven flapping.
    """
    best = None
    best_value = math.inf
    for idx in satisfying:
        value = goal_medians[idx]
        if value < best_value:
            best, best_value = idx, value
    if best is None:
        return None, previous_reported
    reported = previous_reported
    if reported is None or best == reported:
        reported = best
    elif counts.get(best, 0) >= counts.get(reported, 0):
        reported = best
    return best, reported


@dataclass
class Confidence:
    """The confidence values logged for each trial."""

    tau: float
    cumulative: float
    theta: float
    alpha: float
    alpha_b1: float
    alpha_b2: float
    beta: float
    best_index: int | None
    reported_index: int | None
    reported_goal_median: float | None


def sorted_median(values: Sequence[float]) -> float:
    """Median of an ascending list; equal to ``np.median`` for finite values."""
    k = len(values) // 2
    if len(values) % 2:
        return float(values[k])
    return float((values[k - 1] + values[k]) / 2)


class AnalysisState:
    """Incremental per-trial analysis over a growing observation list.

    The single owner of the run's observations: each set's raw readings
    per metric kept sorted (so counts and medians are read off directly),
    and the set indices and canonical GP targets in trial order, in
    buffers that grow by doubling. Canonical values are ``sign * raw``;
    negation is exact, so canonical medians equal medians of canonical
    values.

    Each ``update`` sets what the selectors read as attributes of the
    state: the per-set ``counts`` and canonical ``goal_medians``, the GP
    posterior (``goal_mean``, ``goal_std``, ``constraint_models``,
    ``kappa``), the candidate pools (``d_n``, ``d_satisfying``,
    ``d_violating``), the bests and the escape inputs. ``last`` holds the
    trial's logged ``Confidence`` record.

    A trial changes only its own set, so each update recomputes that set's
    median and feasibility flag and nothing else per set, rebuilds the
    candidate pools only when the set enters them or changes pool, and
    folds the trial into the running target extrema. The GP state
    (:class:`surrogate.KernelRows`) is kept for the whole run and owns the
    per-set trial counts and target sums; each fit folds in the one new
    trial and refactors only the rows from the trial's set on.
    """

    def __init__(
        self,
        space: ParameterSpace,
        requirement: Requirement | CanonicalForm,
        delta: float,
        kernel: KernelConfig,
    ):
        self.space = space
        self.canonical = canonicalize(requirement)
        self.delta = delta
        self.kernel = kernel
        canon = self.canonical
        self._metrics = canon.metric_names
        self._sorted: dict[int, dict[str, list[float]]] = {}
        # GP target name -> (metric, sign).
        self._target_defs = {"goal": (canon.goal_metric, canon.goal_sign)}
        for c in canon.constraints:
            self._target_defs[f"c:{c.metric}"] = (c.metric, c.sign)
        # Trial order; the first n entries are the observations.
        self._n = 0
        self._trial_sets = np.empty(64, dtype=np.intp)
        self._targets = {key: np.empty(64) for key in self._target_defs}
        # Per set: whether the constraint medians violate.
        self._violating = np.zeros(space.n_sets, dtype=bool)
        # Running extrema of the targets.
        self._target_min = {key: math.inf for key in self._target_defs}
        self._goal_max = -math.inf
        self._rows = surrogate.KernelRows(space, kernel)
        self.trace = confidence.SuboptimalityTrace()
        self.counts: dict[int, int] = {}
        self.goal_medians: dict[int, float] = {}
        self.constraint_models: dict[str, GPModel] = {}
        self.goal_mean: np.ndarray | None = None
        self.goal_std: np.ndarray | None = None
        self.kappa = 0.0
        self.d_n, self.d_satisfying, self.d_violating = self._split()
        self.best_index: int | None = None
        self.best_value: float | None = None
        self.reported_index: int | None = None
        self.f_c_plus: dict[str, float] = {}
        # The canonical goal's observed range, the RL violation penalty.
        self.goal_range = 0.0
        self.last: Confidence | None = None

    @property
    def n(self) -> int:
        """The number of observations so far."""
        return self._n

    @property
    def f_best(self) -> float:
        """Improvement baseline for EI and the escape metric."""
        if self.best_value is not None:
            return self.best_value
        if self.goal_medians:
            return min(self.goal_medians.values())
        return 0.0

    def update(self, obs: Observation) -> Confidence:
        """Add the next observation and return the trial's confidence record.

        Its trial index must be ``n + 1``, its set one of the space, and
        each required metric a finite number; otherwise ConfigError is
        raised before anything is recorded.
        """
        if obs.trial_index != self.n + 1:
            raise ConfigError(
                f"trial_index {obs.trial_index} out of order, expected {self.n + 1}"
            )
        missing = [m for m in self._metrics if m not in obs.metrics]
        if missing:
            raise ConfigError(
                f"observation at trial {obs.trial_index} missing metrics {missing}"
            )
        idx = obs.set_index
        if not is_set_index(idx, self.space.n_sets):
            raise ConfigError(
                f"observation at trial {obs.trial_index}: set_index {idx!r} is "
                f"not one of the sets 0..{self.space.n_sets - 1}"
            )
        for m in self._metrics:
            value = obs.metrics[m]
            if not is_metric_value(value):
                raise ConfigError(
                    f"observation at trial {obs.trial_index}: metric {m!r} is "
                    f"{value!r}, not a finite number"
                )
        canon = self.canonical
        # Fit and predict before recording anything, so that a FitError
        # leaves the state as it was: the trial is written one past the
        # first n buffer entries, and the kept GP state changes only when
        # the fit succeeds.
        n = self._n
        values = {
            key: sign * float(obs.metrics[metric])
            for key, (metric, sign) in self._target_defs.items()
        }
        if n == len(self._trial_sets):
            # np.resize keeps the first entries and pads with their copies.
            self._trial_sets = np.resize(self._trial_sets, 2 * n)
            self._targets = {k: np.resize(b, 2 * n) for k, b in self._targets.items()}
        self._trial_sets[n] = idx
        for key, value in values.items():
            self._targets[key][n] = value
        models = surrogate.fit_many_xy(
            self.space,
            self._trial_sets[: n + 1],
            {key: b[: n + 1] for key, b in self._targets.items()},
            self.kernel,
            rows=self._rows,
        )
        goal_mean, goal_var = models["goal"].predict_all()

        self._n = n + 1
        self._target_min = {
            key: min(low, values[key]) for key, low in self._target_min.items()
        }
        self._goal_max = max(self._goal_max, values["goal"])
        self.constraint_models = {
            c.metric: models[f"c:{c.metric}"] for c in canon.constraints
        }
        self.goal_mean = goal_mean
        self.goal_std = np.sqrt(goal_var)
        readings = self._sorted.setdefault(idx, {m: [] for m in self._metrics})
        for metric, sorted_values in readings.items():
            bisect.insort(sorted_values, obs.metrics[metric])
        goal_sorted = readings[canon.goal_metric]
        first = idx not in self.counts
        self.counts[idx] = len(goal_sorted)
        self.goal_medians[idx] = canon.goal_sign * sorted_median(goal_sorted)
        violating = not all(
            c.satisfied(sorted_median(readings[c.metric]))
            for c in canon.constraints
        )
        if first or violating != self._violating[idx]:
            self._violating[idx] = violating
            self.d_n, self.d_satisfying, self.d_violating = self._split()

        prev_index, prev_value = self.best_index, self.best_value
        best, reported = current_best(
            self.d_satisfying, self.goal_medians, self.counts, self.reported_index
        )
        best_value = self.goal_medians[best] if best is not None else None
        self.best_index, self.best_value = best, best_value
        self.reported_index = reported

        self.kappa = confidence.kappa(self.n, self.space.n_sets, self.delta)
        if best is not None and self.d_n:
            cand = np.asarray(self.d_n, dtype=int)
            tau = confidence.instant_suboptimality(
                best_value, self.goal_mean[cand], self.goal_std[cand], self.kappa
            )
        else:
            tau = None
        tau = self.trace.record(tau)
        alpha, theta = confidence.optimality_alpha(self.trace)

        self.goal_range = self._goal_max - self._target_min["goal"]
        if best is not None and prev_index is not None:
            a_b1 = confidence.alpha_b1(best_value, prev_value, self.goal_range)
            a_b2 = confidence.alpha_b2(a_b1, self.space, best, prev_index)
        else:
            a_b1 = 0.0
            a_b2 = 0.0

        self.f_c_plus = {
            c.metric: max(self._target_min[f"c:{c.metric}"], c.bound)
            for c in canon.constraints
        }
        self.last = Confidence(
            tau=tau,
            cumulative=self.trace.cumulative[-1],
            theta=theta,
            alpha=alpha,
            alpha_b1=a_b1,
            alpha_b2=a_b2,
            beta=self._beta(reported),
            best_index=best,
            reported_index=reported,
            reported_goal_median=(
                sorted_median(self._sorted[reported][canon.goal_metric])
                if reported is not None
                else None
            ),
        )
        return self.last

    def _split(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Candidate pools from the per-set constraint medians.

        Returns (optimistic candidates, observed satisfying, observed
        violating), each ascending; never-observed sets count as
        satisfying so exploration is not starved before coverage.
        """
        vio = self._violating
        return (
            tuple(np.flatnonzero(~vio).tolist()),
            tuple(np.flatnonzero(self._rows.tried() & ~vio).tolist()),
            tuple(np.flatnonzero(vio).tolist()),
        )

    def _beta(self, reported: int | None) -> float:
        if reported is None:
            return 0.0
        if not self.canonical.constraints:
            return 1.0
        readings = self._sorted[reported]
        return min(
            confidence.robustness_beta(readings[c.metric], c)
            for c in self.canonical.constraints
        )

    def reward(self, obs: Observation) -> float:
        """RL reward: negated canonical goal, minus a range-scaled penalty
        when the observation violates any constraint."""
        goal = self.canonical.goal_value(obs.metrics)
        violated = any(
            not c.satisfied(obs.metrics[c.metric])
            for c in self.canonical.constraints
        )
        return -goal - (self.goal_range if violated else 0.0)


@dataclass
class TrialLogEntry(Confidence):
    """One trial of the run and the confidence values after it."""

    n: int
    set_index: int
    selected_by: str
    trap: bool
    escape_mode: str | None
    metrics: dict[str, float]


@dataclass
class RunResult:
    best_index: int | None
    best_set: ParameterSet | None
    alpha: float
    beta: float
    trials: list[TrialLogEntry]
    terminated_by: str
    aborted: bool = False
    error: str | None = None

    @property
    def n_trials(self) -> int:
        return len(self.trials)


@dataclass
class Choice:
    """A set picked by ``Engine.ask`` and how it was picked."""

    index: int
    selected_by: str
    trap: bool = False
    escape_mode: str | None = None


class Engine:
    """One optimization run: config + executor -> RunResult.

    ``run`` drives the executor until a termination criterion fires. A
    caller can drive the same steps itself: ``ask`` for a set, run that
    trial, and ``tell`` its observation, with the loop inside
    ``surrogate.one_blas_thread()`` as ``run`` does.
    """

    def __init__(self, config: EngineConfig, executor):
        self.config = config
        self.executor = executor
        self.space = config.space
        self.rng = np.random.default_rng([config.seed, 0])
        self.analysis = AnalysisState(
            self.space, config.requirement, config.delta, config.kernel
        )
        self.nts_state = acquisition.NtsState()
        self.trials: list[TrialLogEntry] = []
        # The stateful baseline selectors: GER's sweep or the RL policy.
        self._policy = self._build_policy()
        self._init_sets: list[int] | None = None
        # Handed out by ask() until tell() records its observation.
        self._pending: Choice | None = None

    def _build_policy(self):
        kind = self.config.selector
        if kind == "ger":
            return baselines.GerSchedule(self.space, self.config.seed)
        if kind not in RL_SELECTORS:
            return None
        policy_cls = (
            baselines.RlStepPolicy if kind == "rl-step" else baselines.RlAnyPolicy
        )
        return policy_cls(
            self.space,
            self.rng,
            epsilon=self.config.rl_epsilon,
            learning_rate=self.config.rl_learning_rate,
            discount=self.config.rl_discount,
        )

    # -- run loop ----------------------------------------------------------

    def run(self) -> RunResult:
        """The whole run, with BLAS on one thread (``one_blas_thread``)."""
        try:
            with surrogate.one_blas_thread():
                while (reason := self.termination_reason()) is None:
                    choice = self.ask()
                    # Every selector returns an open set, so a SetExhausted
                    # here is an executor fault and aborts the run like any
                    # ExecutorError.
                    obs = self.executor.run_trial(choice.index, self.analysis.n + 1)
                    self.tell(choice, obs)
        except ExecutorError as e:
            return self._result("executor-error", aborted=True, error=str(e))
        except surrogate.FitError as e:
            return self._result("fit-error", aborted=True, error=str(e))
        return self._result(reason)

    def ask(self) -> Choice:
        """The next set to try, never an unavailable one.

        The first ``n_init`` trials take the initial design; an
        unavailable design set is replaced by a random open one. Raises
        ``DatasetExhausted`` when no set is open. Until ``tell`` records
        it, every call returns the same choice and decides nothing anew.
        """
        if self._pending is not None:
            return self._pending
        if self._init_sets is None:
            cfg = self.config
            self._init_sets = initial_sample(
                self.space, cfg.n_init, cfg.init_strategy, cfg.suggestions, self.rng
            )
        excluded = self.executor.unavailable_sets()
        if len(excluded) >= self.space.n_sets:
            raise DatasetExhausted("no selectable parameter set remains")
        n = self.analysis.n
        if n < len(self._init_sets):
            idx = self._init_sets[n]
            if idx in excluded:
                idx = baselines.random_open_set(self.space, excluded, self.rng)
            self._pending = Choice(idx, "init")
        else:
            self._pending = self._choose(self.analysis, excluded)
        return self._pending

    def tell(self, choice: Choice, obs: Observation) -> TrialLogEntry:
        """Record the observation of the trial ``choice`` asked for.

        ``choice`` must be the one ``ask`` returned, the observation must
        be of its set, and its trial index must be ``analysis.n + 1``.
        An observation rejected with ConfigError leaves the engine as it was.
        """
        if choice != self._pending:
            raise ConfigError(f"{choice} is not the pending ask() choice")
        if obs.set_index != choice.index:
            raise ConfigError(
                f"observation of set {obs.set_index} told for set {choice.index}"
            )
        record = self.analysis.update(obs)
        self._pending = None
        if self.config.selector in RL_SELECTORS:
            self._policy.update(self.analysis.reward(obs), obs.set_index)
        entry = TrialLogEntry(
            n=self.analysis.n,
            set_index=obs.set_index,
            selected_by=choice.selected_by,
            trap=choice.trap,
            escape_mode=choice.escape_mode,
            metrics=dict(obs.metrics),
            **vars(record),
        )
        self.trials.append(entry)
        return entry

    def termination_reason(self) -> str | None:
        """The criterion that ends the run now, or None to go on."""
        term = self.config.termination
        n = self.analysis.n
        if n == 0:
            return None
        if term.max_trials is not None and n >= term.max_trials:
            return "max_trials"
        last = self.analysis.last
        if term.alpha_target is not None and last.alpha >= term.alpha_target:
            return "alpha_target"
        if term.beta_target is not None and last.beta >= term.beta_target:
            return "beta_target"
        return None

    def _result(self, terminated_by: str, aborted: bool = False,
                error: str | None = None) -> RunResult:
        last = self.analysis.last
        reported = last.reported_index if last is not None else None
        return RunResult(
            best_index=reported,
            best_set=self.space.set_at(reported) if reported is not None else None,
            alpha=last.alpha if last is not None else 0.0,
            beta=last.beta if last is not None else 0.0,
            trials=self.trials,
            terminated_by=terminated_by,
            aborted=aborted,
            error=error,
        )

    # -- selection -----------------------------------------------------------

    def _choose(self, analysis: AnalysisState, excluded: frozenset[int]) -> Choice:
        """The next set under the configured selector; never an excluded one."""
        kind = self.config.selector
        if kind in ("gp-lcb", "ei"):
            return self._choose_gp(analysis, excluded)
        if kind == "ger":
            return Choice(self._policy.select(excluded), kind)
        if kind in RL_SELECTORS:
            return Choice(self._policy.propose(self._policy.state, excluded), kind)
        g_n = baselines.SurrogateLite.fit(self.space, analysis.goal_medians)
        if kind == "gel":
            pool = [i for i in analysis.d_satisfying if i not in excluded]
            sel = baselines.gel_select(g_n, pool)
        else:
            pool = [i for i in analysis.d_n if i not in excluded]
            sel = baselines.guc_select(analysis.counts, g_n, pool, self.space, self.rng)
        if sel is None:
            sel = baselines.random_open_set(self.space, excluded, self.rng)
        return Choice(sel, kind)

    def _choose_gp(self, analysis: AnalysisState, excluded: frozenset[int]) -> Choice:
        """GP-LCB / EI selection with trap detection and escapes."""
        kind = self.config.selector
        pool = np.array([i for i in analysis.d_n if i not in excluded], dtype=int)
        if pool.size == 0:
            return self._escape_constraint(analysis, excluded, trap=False) or Choice(
                baselines.random_open_set(self.space, excluded, self.rng), "random"
            )
        sel, score = self._select(analysis, pool)
        self.nts_state.observe(score)
        if not acquisition.detect_trap(self.nts_state, score):
            return Choice(sel, kind)
        mode = self.nts_state.next_escape()
        if mode == acquisition.ESCAPE_GOAL:
            sel = acquisition.escape_goal_outlier(
                analysis.counts, pool, lambda sub: self._select(analysis, sub)[0]
            )
            return Choice(sel, f"escape:{mode}", trap=True, escape_mode=mode)
        # With no open violating set, keep the unrestricted selection.
        return self._escape_constraint(analysis, excluded, trap=True) or Choice(
            sel, kind, trap=True, escape_mode=mode
        )

    def _select(self, analysis: AnalysisState, pool: np.ndarray) -> tuple[int, float]:
        return acquisition.select(
            self.config.selector,
            pool,
            analysis.goal_mean[pool],
            analysis.goal_std[pool],
            analysis.kappa,
            analysis.f_best,
        )

    def _escape_constraint(
        self, analysis: AnalysisState, excluded: frozenset[int], trap: bool
    ) -> Choice | None:
        """Constraint-noise escape over the observed-violating sets; None
        when no such set is open or there are no constraints."""
        d_prime = [i for i in analysis.d_violating if i not in excluded]
        if not (d_prime and analysis.constraint_models):
            return None
        sel = acquisition.escape_constraint(
            analysis.goal_mean,
            analysis.constraint_models,
            d_prime,
            analysis.f_c_plus,
            analysis.f_best,
            analysis.kappa,
        )
        mode = acquisition.ESCAPE_CONSTRAINT
        return Choice(sel, f"escape:{mode}", trap=trap, escape_mode=mode)


def reanalyze(
    space: ParameterSpace,
    requirement: Requirement | CanonicalForm,
    observations: Sequence[Observation],
    delta: float,
    kernel: KernelConfig,
) -> list[Confidence]:
    """Recompute each trial's confidence record from a persisted
    observation log.

    The confidence values are pure functions of the observation prefix,
    so this reproduces the ten values the original run logged per trial.
    """
    state = AnalysisState(space, requirement, delta, kernel)
    with surrogate.one_blas_thread():
        return [state.update(obs) for obs in observations]
