"""Engine loop: initial sampling, filtering, bests, termination, escapes."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apexopt import surrogate
from apexopt.cli import parse_config
from apexopt.domain import (
    ConfigError,
    ConstraintSpec,
    MetricSpec,
    Observation,
    ParameterDef,
    ParameterSpace,
    Requirement,
    TerminationCriteria,
    UnsatisfiableTerminationError,
    canonicalize,
)
from apexopt.engine import (
    SELECTOR_ALIASES,
    AnalysisState,
    Choice,
    Engine,
    EngineConfig,
    current_best,
    initial_sample,
    normalize_selector,
    reanalyze,
)
from apexopt.executor import (
    ReplayExecutor,
    SetExhausted,
    SyntheticExecutor,
    SyntheticSpec,
    make_executor,
)
from apexopt.surrogate import FitError, KernelConfig
from tests.conftest import (
    blas_threads,
    fail_fit_on_call,
    make_dataset,
    make_line_space,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def observations_of(result):
    """The run's observations, rebuilt from its trial log."""
    return [Observation(t.n, t.set_index, t.metrics) for t in result.trials]


@pytest.fixture
def noiseless_setup(crystal_space, energy_prr_requirement):
    energy = np.array([100.0 + 10 * i + 3 * j for i in range(4) for j in range(4)])
    prr = np.array([60.0 + 10 * i for i in range(4) for j in range(4)])
    spec = SyntheticSpec(crystal_space, {"energy": energy, "prr": prr})
    return crystal_space, energy_prr_requirement, spec


class TestInitialSample:
    def test_exact_suggestions_in_given_order(self, crystal_space):
        suggestions = [crystal_space.set_at(i) for i in (15, 14, 6, 7, 0, 8)]
        picked = initial_sample(crystal_space, 6, "random", suggestions, rng())
        assert picked == [15, 14, 6, 7, 0, 8]

    def test_suggestions_plus_random_fill(self, crystal_space):
        suggestions = [crystal_space.set_at(3), crystal_space.set_at(9)]
        picked = initial_sample(crystal_space, 6, "random", suggestions, rng())
        assert picked[:2] == [3, 9]
        assert len(picked) == 6 and len(set(picked)) == 6

    def test_latin_hypercube_on_square_grid(self, crystal_space):
        for seed in range(10):
            picked = initial_sample(crystal_space, 4, "latin-hypercube", [], rng(seed))
            rows = [crystal_space.value_indices(i)[0] for i in picked]
            cols = [crystal_space.value_indices(i)[1] for i in picked]
            assert sorted(rows) == [0, 1, 2, 3]
            assert sorted(cols) == [0, 1, 2, 3]

    def test_sobol_fills_distinct_sets(self, crystal_space):
        picked = initial_sample(crystal_space, 8, "sobol", [], rng(1))
        assert len(picked) == 8 and len(set(picked)) == 8

    def test_n_init_cannot_exceed_space(self, crystal_space):
        with pytest.raises(ConfigError, match="exceeds"):
            initial_sample(crystal_space, 17, "random", [], rng())

    def test_suggestions_strategy_requires_enough(self, crystal_space):
        with pytest.raises(ConfigError, match="needs"):
            initial_sample(crystal_space, 6, "suggestions",
                           [crystal_space.set_at(0)], rng())

    def test_duplicate_suggestions_rejected(self, crystal_space):
        s = crystal_space.set_at(4)
        with pytest.raises(ConfigError, match="duplicate"):
            initial_sample(crystal_space, 6, "random", [s, s], rng())


class TestFilterSatisfying:
    """The candidate pools ``AnalysisState`` keeps from per-set medians."""

    @staticmethod
    def observe(state, set_index, prr_values):
        for k, prr in enumerate(prr_values, start=state.n + 1):
            state.update(Observation(k, set_index, {"energy": 100.0 + k, "prr": prr}))
        return state.d_n, state.d_satisfying, state.d_violating

    def test_no_observations_gives_full_space(self, crystal_space,
                                              energy_prr_requirement):
        state = AnalysisState(crystal_space, energy_prr_requirement, 0.1,
                              KernelConfig())
        assert state.d_n == tuple(range(16))
        assert state.d_satisfying == () and state.d_violating == ()

    def test_median_of_60_70_70_is_included(self, crystal_space,
                                            energy_prr_requirement):
        state = AnalysisState(crystal_space, energy_prr_requirement, 0.1,
                              KernelConfig())
        # Canonical PRR values are negated; median(-60,-70,-70) = -70 <= -65.
        d_n, sat, vio = self.observe(state, 2, [60.0, 70.0, 70.0])
        assert 2 in sat and 2 in d_n and vio == ()

    def test_all_below_bound_excluded(self, crystal_space, energy_prr_requirement):
        state = AnalysisState(crystal_space, energy_prr_requirement, 0.1,
                              KernelConfig())
        d_n, sat, vio = self.observe(state, 2, [60.0, 62.0, 58.0])
        assert vio == (2,) and 2 not in d_n

    def test_split_after_every_trial_equals_recomputation(self, noiseless_setup):
        # Noisy PRR around the 65 bound: sets move between the pools.
        space, req, spec = noiseless_setup
        noisy = SyntheticSpec(space, spec.metrics, {"energy": 2.0, "prr": 6.0})
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=40),
                           selector="gp-lcb", seed=3)
        result = Engine(cfg, SyntheticExecutor(noisy, 3)).run()
        state = AnalysisState(space, req, cfg.delta, cfg.kernel)
        prr: dict[int, list[float]] = {}
        moved = set()
        for obs in observations_of(result):
            state.update(obs)
            prr.setdefault(obs.set_index, []).append(obs.metrics["prr"])
            ok = {i for i, v in prr.items() if np.median(v) >= 65.0}
            vio = sorted(set(prr) - ok)
            assert state.d_satisfying == tuple(sorted(ok))
            assert state.d_violating == tuple(vio)
            assert state.d_n == tuple(i for i in range(16) if i not in vio)
            assert all(type(i) is int for i in state.d_n)
            moved |= set(vio)
        assert moved and state.d_satisfying


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestIncrementalTotals:
    """The per-set totals ``AnalysisState`` keeps from trial to trial equal
    regrouping the whole trace with ``np.unique`` and ``np.bincount``."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 15),
                  st.floats(-1e4, 1e4, allow_nan=False),
                  st.floats(-1e4, 1e4, allow_nan=False)),
        min_size=1, max_size=100,
    ))
    # Past the buffers' first 64 entries, so they grow once.
    @example([(i % 16, float(i), float(100 - i)) for i in range(70)])
    def test_fit_inputs_equal_the_regrouped_trace(self, trace):
        space = ParameterSpace([ParameterDef("a", (0.0, 1.0, 2.0, 3.0)),
                                ParameterDef("b", (0.0, 1.0, 2.0, 3.0))])
        req = Requirement(goal=MetricSpec("energy", "minimize"),
                          constraints=(ConstraintSpec("prr", ">=", 65.0, 0.5),))
        real = surrogate.fit_many_xy
        sets_so_far: list[int] = []
        targets_so_far: dict[str, list[float]] = {"goal": [], "c:prr": []}

        def checked(space, set_indices, values_by_metric, cfg, rows=None,
                    totals=None):
            assert list(set_indices) == sets_so_far
            idx = np.array(sets_so_far)
            sets, inverse, counts = np.unique(idx, return_inverse=True,
                                              return_counts=True)
            assert np.array_equal(totals.sets, sets)
            assert np.array_equal(totals.counts, counts)
            for metric, values in values_by_metric.items():
                y = np.array(targets_so_far[metric])
                assert _bits(values) == _bits(y)
                assert _bits(totals.sums[metric] / totals.counts) == _bits(
                    np.bincount(inverse, weights=y) / counts)
                assert _bits(surrogate._standardize(values)) == _bits(
                    surrogate._standardize(y))
            models = real(space, set_indices, values_by_metric, cfg, rows=rows,
                          totals=totals)
            oracle = real(space, sets_so_far, targets_so_far, cfg)
            for metric, model in models.items():
                assert np.array_equal(model.train_sets, oracle[metric].train_sets)
                assert _bits(model.set_means) == _bits(oracle[metric].set_means)
                assert _bits([model.y_mean, model.y_std]) == _bits(
                    [oracle[metric].y_mean, oracle[metric].y_std])
            return models

        state = AnalysisState(space, req, 0.1, KernelConfig())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surrogate, "fit_many_xy", checked)
            for k, (set_index, energy, prr) in enumerate(trace, start=1):
                sets_so_far.append(set_index)
                targets_so_far["goal"].append(energy)
                targets_so_far["c:prr"].append(-prr)
                state.update(Observation(k, set_index, {"energy": energy, "prr": prr}))
        goals = targets_so_far["goal"]
        assert state.goal_range == max(goals) - min(goals)
        assert state.f_c_plus == {"prr": max(min(targets_so_far["c:prr"]), -65.0)}


class TestAnalysisStateUpdate:
    """The trial-log checks run before the observation is read."""

    def test_update_enforces_consecutive_trials(self, crystal_space,
                                                energy_prr_requirement):
        state = AnalysisState(crystal_space, energy_prr_requirement, 0.1,
                              KernelConfig())
        state.update(Observation(1, 0, {"energy": 1.0, "prr": 70.0}))
        with pytest.raises(ConfigError, match="out of order"):
            state.update(Observation(3, 0, {"energy": 1.0, "prr": 70.0}))
        assert state.n == 1

    @pytest.mark.parametrize("set_index", [True, 1.0, -1, 16])
    def test_update_rejects_what_is_not_a_set_index(
            self, crystal_space, energy_prr_requirement, set_index):
        state = AnalysisState(crystal_space, energy_prr_requirement, 0.1,
                              KernelConfig())
        with pytest.raises(ConfigError, match="is not one of the sets"):
            state.update(Observation(1, set_index, {"energy": 1.0, "prr": 70.0}))
        assert state.n == 0 and state.last is None

    def test_update_requires_metrics(self, crystal_space, energy_prr_requirement):
        state = AnalysisState(crystal_space, energy_prr_requirement, 0.1,
                              KernelConfig())
        with pytest.raises(ConfigError, match="missing metrics"):
            state.update(Observation(1, 0, {"energy": 1.0}))
        assert state.n == 0 and state.last is None


class TestCurrentBest:
    def test_lower_count_best_does_not_replace_reported(self):
        goal_medians = {0: 5.0, 1: 4.0}
        counts = {0: 2, 1: 1}
        best, reported = current_best([0, 1], goal_medians, counts, previous_reported=0)
        assert best == 1
        assert reported == 0  # sticky: count 1 < count 2

    def test_equal_count_replaces_reported(self):
        goal_medians = {0: 5.0, 1: 4.0}
        counts = {0: 2, 1: 2}
        best, reported = current_best([0, 1], goal_medians, counts, previous_reported=0)
        assert best == 1 and reported == 1

    def test_empty_satisfying_keeps_reported(self):
        best, reported = current_best([], {}, {}, previous_reported=3)
        assert best is None and reported == 3

    def test_tie_breaks_to_lowest_index(self):
        best, _ = current_best([2, 5], {2: 4.0, 5: 4.0}, {2: 1, 5: 1}, None)
        assert best == 2


class TestEngineRuns:
    def test_max_trials_equals_n_init(self, noiseless_setup):
        space, req, spec = noiseless_setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=6),
                           selector="gp-lcb", seed=1)
        result = Engine(cfg, SyntheticExecutor(spec, 1)).run()
        assert result.n_trials == 6
        assert all(t.selected_by == "init" for t in result.trials)

    def test_each_step_appends_exactly_one_trial(self, noiseless_setup):
        space, req, spec = noiseless_setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=15),
                           selector="ei", seed=2)
        result = Engine(cfg, SyntheticExecutor(spec, 2)).run()
        assert [t.n for t in result.trials] == list(range(1, 16))

    def test_noiseless_trajectory_is_reproducible(self, noiseless_setup):
        space, req, spec = noiseless_setup

        def trajectory(selector):
            cfg = EngineConfig(space=space, requirement=req,
                               termination=TerminationCriteria(max_trials=25),
                               selector=selector, seed=11)
            result = Engine(cfg, SyntheticExecutor(spec, 11)).run()
            return [(t.set_index, t.alpha, t.beta, t.reported_index)
                    for t in result.trials]

        for selector in ("gp-lcb", "ei", "gel", "ger", "guc", "rl-step", "rl-any"):
            assert trajectory(selector) == trajectory(selector)

    def test_reported_best_count_is_non_decreasing(self, noiseless_setup):
        space, req, spec = noiseless_setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=40),
                           selector="ei", seed=3)
        eng = Engine(cfg, SyntheticExecutor(spec, 3))
        result = eng.run()
        counts_seen = []
        running = {}
        for t in result.trials:
            running[t.set_index] = running.get(t.set_index, 0) + 1
            if t.reported_index is not None:
                counts_seen.append(running.get(t.reported_index, 0))
        assert all(b >= a for a, b in zip(counts_seen, counts_seen[1:]))

    def test_beta_target_needs_six_satisfying_results(self):
        # At p = 0.5 the binomial bound tops out at 1 - 2^-N, so 0.98
        # cannot be reached before the reported best has 6 results.
        space = make_line_space(3)
        spec = SyntheticSpec(space, {"g": np.array([3.0, 2.0, 1.0]),
                                     "c": np.array([90.0, 90.0, 90.0])})
        req = Requirement(goal=MetricSpec("g", "minimize"),
                          constraints=(ConstraintSpec("c", ">=", 50.0, 0.5),))
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=200,
                                                           beta_target=0.98),
                           selector="gp-lcb", n_init=3, seed=5)
        result = Engine(cfg, SyntheticExecutor(spec, 5)).run()
        assert result.terminated_by == "beta_target"
        reported = result.trials[-1].reported_index
        count = sum(1 for t in result.trials if t.set_index == reported)
        assert count >= 6
        assert result.beta >= 0.98

    def test_alpha_target_termination(self, noiseless_setup):
        space, req, spec = noiseless_setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=100,
                                                           alpha_target=60.0),
                           selector="gp-lcb", seed=4)
        result = Engine(cfg, SyntheticExecutor(spec, 4)).run()
        if result.terminated_by == "alpha_target":
            assert result.alpha >= 60.0

    def test_unreachable_alpha_target_rejected(self):
        with pytest.raises(UnsatisfiableTerminationError):
            TerminationCriteria(alpha_target=101.0)

    def test_unknown_selector_rejected(self, noiseless_setup):
        space, req, _ = noiseless_setup
        with pytest.raises(ConfigError, match="unknown selector"):
            EngineConfig(space=space, requirement=req,
                         termination=TerminationCriteria(max_trials=5),
                         selector="simulated-annealing")

    def test_selector_aliases(self):
        assert normalize_selector("apex-lcb") == "gp-lcb"
        assert normalize_selector("APEX-EI") == "ei"


class TestEscapes:
    def test_trapped_iterations_alternate_escape_modes(self, noiseless_setup):
        space, req, spec = noiseless_setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=20),
                           selector="ei", seed=6)
        eng = Engine(cfg, SyntheticExecutor(spec, 6))
        # Force every post-init selection to look trapped.
        eng.nts_state.score_max = 1e9
        result = eng.run()
        modes = [t.escape_mode for t in result.trials if t.trap]
        assert len(modes) >= 4
        assert modes[0] == "goal-outlier"
        assert all(a != b for a, b in zip(modes, modes[1:]))

    def test_goal_escape_avoids_most_tested(self, noiseless_setup):
        space, req, spec = noiseless_setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=30),
                           selector="ei", seed=7)
        eng = Engine(cfg, SyntheticExecutor(spec, 7))
        eng.nts_state.score_max = 1e9
        result = eng.run()
        counts = {}
        for t in result.trials:
            if t.trap and t.escape_mode == "goal-outlier":
                max_count = max(counts.values(), default=0)
                if counts and max_count > 0:
                    assert counts.get(t.set_index, 0) < max_count
            counts[t.set_index] = counts.get(t.set_index, 0) + 1


class _ClosedSetsExecutor(SyntheticExecutor):
    """A synthetic executor that reports a fixed group of sets unavailable."""

    def __init__(self, spec, seed, closed):
        super().__init__(spec, seed)
        self.closed = frozenset(closed)

    def unavailable_sets(self):
        return self.closed


class TestInitialReplacement:
    def test_unavailable_initial_set_is_replaced_by_an_open_one(
        self, noiseless_setup
    ):
        space, req, spec = noiseless_setup
        suggestions = tuple(space.set_at(i) for i in (0, 1, 2))
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=3),
                           selector="gp-lcb", n_init=3, suggestions=suggestions,
                           seed=4)
        result = Engine(cfg, _ClosedSetsExecutor(spec, 4, range(12))).run()
        assert not result.aborted
        assert [t.selected_by for t in result.trials] == ["init"] * 3
        assert all(t.set_index >= 12 for t in result.trials)

    def test_no_open_set_aborts_with_the_selection_message(self, noiseless_setup):
        space, req, spec = noiseless_setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=6),
                           selector="gp-lcb", seed=4)
        result = Engine(cfg, _ClosedSetsExecutor(spec, 4, range(16))).run()
        assert result.aborted and result.n_trials == 0
        assert result.terminated_by == "executor-error"
        assert result.error == "no selectable parameter set remains"


class _ExhaustingExecutor(SyntheticExecutor):
    """A synthetic executor whose given trial raises SetExhausted."""

    def __init__(self, spec, seed, fail_at):
        super().__init__(spec, seed)
        self.fail_at = fail_at

    def run_trial(self, set_index, trial_index):
        if trial_index == self.fail_at:
            raise SetExhausted(set_index)
        return super().run_trial(set_index, trial_index)


class TestSetExhausted:
    def test_set_exhausted_from_the_executor_aborts_the_run(self, noiseless_setup):
        space, req, spec = noiseless_setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=12),
                           selector="gp-lcb", seed=4)
        result = Engine(cfg, _ExhaustingExecutor(spec, 4, fail_at=9)).run()
        assert result.aborted
        assert result.terminated_by == "executor-error"
        assert result.n_trials == 8
        assert result.error.startswith("parameter set ")
        assert result.error.endswith(" is exhausted")


class TestReplayIntegration:
    def test_exhausted_set_moves_to_next_best(self, crystal_space,
                                              energy_prr_requirement):
        # Two records per set: any selector re-testing a favorite must move
        # on once its records run out.
        tables = {
            "energy": [100.0 + i for i in range(16)],
            "prr": [90.0] * 16,
        }
        ds = make_dataset(crystal_space, tables, records_per_set=2)
        cfg = EngineConfig(space=crystal_space, requirement=energy_prr_requirement,
                           termination=TerminationCriteria(max_trials=32),
                           selector="gel", n_init=6, seed=8)
        executor = ReplayExecutor(ds, 8, energy_prr_requirement.metric_names)
        result = Engine(cfg, executor).run()
        assert result.n_trials == 32  # full dataset consumed, no abort
        counts = {}
        for t in result.trials:
            counts[t.set_index] = counts.get(t.set_index, 0) + 1
        assert max(counts.values()) <= 2

    def test_budget_beyond_dataset_aborts_with_partial_result(
        self, crystal_space, energy_prr_requirement
    ):
        tables = {"energy": [100.0 + i for i in range(16)], "prr": [90.0] * 16}
        ds = make_dataset(crystal_space, tables, records_per_set=1)
        cfg = EngineConfig(space=crystal_space, requirement=energy_prr_requirement,
                           termination=TerminationCriteria(max_trials=40),
                           selector="ger", n_init=6, seed=9)
        executor = ReplayExecutor(ds, 9, energy_prr_requirement.metric_names)
        result = Engine(cfg, executor).run()
        assert result.aborted
        assert result.terminated_by == "executor-error"
        assert result.n_trials == 16


class TestFitError:
    def test_degenerate_fit_aborts_the_run_with_a_reason(self, noiseless_setup,
                                                         monkeypatch):
        space, req, spec = noiseless_setup
        fail_fit_on_call(monkeypatch, 8)
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=12),
                           selector="gp-lcb", seed=2)
        result = Engine(cfg, SyntheticExecutor(spec, 2)).run()
        assert result.aborted
        assert result.terminated_by == "fit-error"
        assert "forced degenerate fit" in result.error
        assert result.n_trials == 7


def _analysis_snapshot(state: AnalysisState) -> tuple:
    """What a tell leaves behind: the logged values, the selectors' inputs
    and the kept GP factor, bit for bit."""
    rows = state._rows
    m = len(rows._order)
    arrays = (state.goal_mean, state.goal_std, rows._order, rows._table,
              np.tril(rows._lower[:m, :m]), rows._vw[:m], rows._var)
    return (state.n, state.last, dict(state.counts), dict(state.goal_medians),
            state.kappa, state.d_n, state.d_satisfying, state.d_violating,
            state.best_index, state.reported_index, dict(state.f_c_plus),
            state.goal_range, list(state.trace.cumulative), rows.generation,
            [_bits(a) for a in arrays])


class TestFitErrorKeepsTheState:
    def test_escalation_failure_mid_run_changes_nothing(self, crystal_space,
                                                        energy_prr_requirement,
                                                        monkeypatch):
        rng = np.random.default_rng(8)
        sets = [3, 9, 3, 14, 0, 9, 7, 3, 12, 9, 7, 5]
        observations = [
            Observation(k, idx, {"energy": float(rng.normal(150, 10)),
                                 "prr": float(rng.normal(70, 8))})
            for k, idx in enumerate(sets, start=1)
        ]
        state = AnalysisState(crystal_space, energy_prr_requirement, 0.1,
                              KernelConfig())
        twin = AnalysisState(crystal_space, energy_prr_requirement, 0.1,
                             KernelConfig())
        for obs in observations[:8]:
            state.update(obs)
            twin.update(obs)
        before = _analysis_snapshot(state)
        with monkeypatch.context() as mp:
            # No jitter up to the ceiling makes the covariance factor.
            mp.setattr(surrogate, "dpotrf", lambda a, **kwargs: (a, 1))
            with pytest.raises(FitError, match="jitter"):
                state.update(observations[8])
        assert _analysis_snapshot(state) == before
        # The same observation is then accepted, as if nothing had failed.
        for obs in observations[8:]:
            assert state.update(obs) == twin.update(obs)
        assert _analysis_snapshot(state) == _analysis_snapshot(twin)


class TestReanalysis:
    def test_alpha_beta_are_functions_of_the_log_prefix(self, noiseless_setup):
        space, req, spec = noiseless_setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=20),
                           selector="gp-lcb", seed=10)
        result = Engine(cfg, SyntheticExecutor(spec, 10)).run()
        analyses = reanalyze(space, req, observations_of(result), cfg.delta,
                             cfg.kernel)
        assert len(analyses) == len(result.trials)
        for entry, analysis in zip(result.trials, analyses):
            assert analysis.alpha == pytest.approx(entry.alpha, abs=1e-9)
            assert analysis.beta == pytest.approx(entry.beta, abs=1e-12)
            assert analysis.best_index == entry.best_index
            assert analysis.reported_index == entry.reported_index


class TestOneBlasThread:
    """A run's numerics see one BLAS thread; the caller's count comes back."""

    @pytest.fixture
    def updates(self, monkeypatch):
        """The BLAS thread counts seen by each ``AnalysisState.update``."""
        real = AnalysisState.update
        seen = []

        def spy(state, obs):
            seen.append(blas_threads())
            return real(state, obs)

        monkeypatch.setattr(AnalysisState, "update", spy)
        return seen

    @staticmethod
    def _engine(setup, max_trials=12):
        space, req, spec = setup
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=max_trials),
                           selector="gp-lcb", seed=4)
        return Engine(cfg, SyntheticExecutor(spec, 4))

    def test_run(self, caller_blas_threads, noiseless_setup, updates):
        result = self._engine(noiseless_setup).run()
        assert not result.aborted
        assert len(updates) == 12 and all(set(c) == {1} for c in updates)
        assert blas_threads() == caller_blas_threads

    def test_run_restores_the_count_when_it_raises(self, caller_blas_threads,
                                                   noiseless_setup, monkeypatch):
        real = AnalysisState.update

        def third_raises(state, obs):
            if obs.trial_index == 3:
                raise RuntimeError("update 3 broke")
            return real(state, obs)

        monkeypatch.setattr(AnalysisState, "update", third_raises)
        with pytest.raises(RuntimeError, match="update 3 broke"):
            self._engine(noiseless_setup).run()
        assert blas_threads() == caller_blas_threads

    def test_reanalyze(self, caller_blas_threads, noiseless_setup, updates):
        space, req, _ = noiseless_setup
        engine = self._engine(noiseless_setup)
        result = engine.run()
        updates.clear()
        reanalyze(space, req, observations_of(result), engine.config.delta,
                  engine.config.kernel)
        assert len(updates) == 12 and all(set(c) == {1} for c in updates)
        assert blas_threads() == caller_blas_threads


class TestMultiConstraintBeta:
    def test_beta_is_minimum_over_constraints(self, crystal_space):
        from apexopt.confidence import robustness_beta
        from apexopt.domain import Observation, canonicalize

        req = Requirement(
            goal=MetricSpec("energy", "minimize"),
            constraints=(
                ConstraintSpec("prr", ">=", 65.0, 0.5),
                ConstraintSpec("delay", "<=", 100.0, 0.5),
            ),
        )
        state = AnalysisState(crystal_space, req, EngineConfig.delta, KernelConfig())
        # Four trials of one set: prr always satisfies, delay only twice.
        readings = [
            {"energy": 150.0, "prr": 80.0, "delay": 90.0},
            {"energy": 151.0, "prr": 82.0, "delay": 120.0},
            {"energy": 149.0, "prr": 81.0, "delay": 95.0},
            {"energy": 150.5, "prr": 79.0, "delay": 130.0},
        ]
        for k, metrics in enumerate(readings, start=1):
            analysis = state.update(Observation(k, 5, metrics))
        canon = canonicalize(req)
        beta_prr = robustness_beta([80.0, 82.0, 81.0, 79.0], canon.constraints[0])
        beta_delay = robustness_beta([90.0, 120.0, 95.0, 130.0], canon.constraints[1])
        assert beta_delay < beta_prr
        assert analysis.beta == pytest.approx(min(beta_prr, beta_delay))


class TestGoalMetricAlsoConstrained:
    """One metric as goal and as a constraint of the opposite sign, with odd
    and even per-set counts: every per-set statistic equals numpy's."""

    TRIAL_SETS = (0, 1, 2, 0, 1, 3, 2, 0, 1, 1)

    @pytest.mark.parametrize("direction, relation, bound, values", [
        ("minimize", ">=", 150.0,
         (140.0, 151.5, 130.0, 165.0, 120.0, 170.0, 145.0, 155.0, 149.0, 160.3)),
        ("maximize", "<=", 90.0,
         (95.0, 91.0, 99.0, 80.0, 89.0, 60.0, 92.0, 85.0, 70.0, 93.7)),
    ])
    def test_medians_split_and_beta_match_numpy(self, crystal_space, direction,
                                                relation, bound, values):
        from apexopt.confidence import robustness_beta
        from apexopt.domain import Observation

        req = Requirement(
            goal=MetricSpec("m", direction),
            constraints=(ConstraintSpec("m", relation, bound, 0.5),),
        )
        canon = canonicalize(req)
        assert canon.goal_sign == -canon.constraints[0].sign
        state = AnalysisState(crystal_space, req, EngineConfig.delta, KernelConfig())
        raw: dict[int, list[float]] = {}
        for k, (idx, value) in enumerate(zip(self.TRIAL_SETS, values), start=1):
            raw.setdefault(idx, []).append(value)
            record = state.update(Observation(k, idx, {"m": value}))
            medians = {i: np.median(v) for i, v in raw.items()}
            assert state.counts == {i: len(v) for i, v in raw.items()}
            for i, med in medians.items():
                assert state.goal_medians[i] == canon.goal_sign * med
            ok = {i for i, med in medians.items()
                  if (med >= bound if relation == ">=" else med <= bound)}
            assert state.d_satisfying == tuple(sorted(ok))
            assert state.d_violating == tuple(sorted(set(raw) - ok))
            reported = record.reported_index
            assert reported == state.reported_index
            if reported is None:
                assert record.beta == 0.0
                continue
            assert record.reported_goal_median == medians[reported]
            assert record.beta == robustness_beta(raw[reported],
                                                  canon.constraints[0])
        assert sorted(len(v) for v in raw.values()) == [1, 2, 3, 4]
        assert state.d_violating == (2,)


@pytest.mark.parametrize("selector", sorted(set(SELECTOR_ALIASES.values())))
@pytest.mark.parametrize("config", ["crystal_replay.yaml", "synthetic_demo.yaml"])
def test_ask_tell_by_hand_matches_run(config, selector):
    bundle = parse_config(resources.files("apexopt.data") / config)
    cfg = bundle.engine_config(selector=selector)

    def engine():
        return Engine(cfg, make_executor(bundle.source, cfg.space, cfg.seed,
                                         cfg.requirement.metric_names))

    result = engine().run()
    assert not result.aborted
    eng = engine()
    with surrogate.one_blas_thread():
        while eng.termination_reason() is None:
            choice = eng.ask()
            # Asking again before the tell decides nothing anew.
            assert eng.ask() == choice
            obs = eng.executor.run_trial(choice.index, eng.analysis.n + 1)
            assert eng.tell(choice, obs) is eng.trials[-1]
    assert eng.trials == result.trials
    assert eng.termination_reason() == result.terminated_by


def test_tell_rejects_an_observation_it_did_not_ask_for():
    bundle = parse_config(resources.files("apexopt.data") / "synthetic_demo.yaml")
    cfg = bundle.engine_config()
    eng = Engine(cfg, make_executor(bundle.source, cfg.space, cfg.seed))
    obs = eng.executor.run_trial(0, 1)
    with pytest.raises(ConfigError, match="pending ask"):
        eng.tell(Choice(0, "init"), obs)
    choice = eng.ask()
    other = (choice.index + 1) % cfg.space.n_sets
    with pytest.raises(ConfigError, match=f"observation of set {other}"):
        eng.tell(choice, eng.executor.run_trial(other, 1))
    with pytest.raises(ConfigError, match="out of order"):
        eng.tell(choice, eng.executor.run_trial(choice.index, 2))
    # A float equals the chosen index but is not a set index.
    obs = eng.executor.run_trial(choice.index, 1)
    with pytest.raises(ConfigError, match=f"set_index {choice.index}.0 is not one"):
        eng.tell(choice, Observation(1, float(choice.index), obs.metrics))
    assert eng.analysis.n == 0 and eng.trials == []
    # The pending choice survives the rejections and takes its own trial.
    eng.tell(choice, eng.executor.run_trial(choice.index, 1))
    assert eng.analysis.n == 1


def test_non_finite_metric_in_tell_leaves_the_engine_as_it_was():
    bundle = parse_config(resources.files("apexopt.data") / "crystal_replay.yaml")
    cfg = bundle.engine_config()
    eng = Engine(cfg, make_executor(bundle.source, cfg.space, cfg.seed,
                                    cfg.requirement.metric_names))
    choice = eng.ask()
    obs = eng.executor.run_trial(choice.index, 1)
    for bad in (np.nan, np.inf, "12.5", True, 10**400):
        with pytest.raises(ConfigError, match="trial 1: metric 'energy'"):
            eng.tell(choice, Observation(1, choice.index, {**obs.metrics, "energy": bad}))
        assert eng.analysis.n == len(eng.trials) == 0
    eng.tell(choice, obs)
    assert eng.analysis.n == len(eng.trials) == 1


def test_fit_error_in_tell_leaves_the_engine_as_it_was(monkeypatch):
    bundle = parse_config(resources.files("apexopt.data") / "synthetic_demo.yaml")
    cfg = bundle.engine_config()

    def told(eng, k):
        while eng.analysis.n < k:
            choice = eng.ask()
            eng.tell(choice, eng.executor.run_trial(choice.index, eng.analysis.n + 1))
        return eng

    reference = told(Engine(cfg, make_executor(bundle.source, cfg.space, cfg.seed)), 4)
    eng = told(Engine(cfg, make_executor(bundle.source, cfg.space, cfg.seed)), 3)
    choice = eng.ask()
    obs = eng.executor.run_trial(choice.index, 4)
    fail_fit_on_call(monkeypatch, 1)
    with pytest.raises(FitError, match="forced degenerate fit"):
        eng.tell(choice, obs)
    assert eng.analysis.n == len(eng.trials) == 3
    # The same observation is accepted again, as if the failure never was.
    eng.tell(choice, obs)
    assert eng.trials == reference.trials
