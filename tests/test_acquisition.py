"""Acquisition rules: LCB/EI selection, trap detection, escapes."""

import math

import numpy as np
import pytest
from scipy import stats

from apexopt.acquisition import (
    ESCAPE_CONSTRAINT,
    ESCAPE_GOAL,
    NoCandidatesError,
    NtsState,
    coefficient_of_variation,
    delta_metric,
    detect_trap,
    ei_values,
    escape_constraint,
    escape_goal_outlier,
    expected_improvement,
    lcb,
    lcb_values,
    select,
)
from apexopt.confidence import kappa
from apexopt.surrogate import KernelConfig, fit_xy, predict


def toy_model(crystal_space, seed=0, n=10):
    rng = np.random.default_rng(seed)
    idx = [int(i) for i in rng.integers(0, 16, size=n)]
    y = [float(v) for v in rng.normal(100, 15, size=n)]
    return fit_xy(crystal_space, idx, y, KernelConfig())


def choose(kind, model, candidates, kappa_n=0.0, f_best=0.0):
    """``select`` on the model's posterior over the candidate sets."""
    cand = np.asarray(list(candidates), dtype=int)
    mean, var = model.predict_sets(cand)
    std = np.sqrt(np.maximum(var, 0.0))
    return select(kind, cand, mean, std, kappa_n, f_best)[0]


class TestLcb:
    def test_zero_sigma_equals_mean(self):
        assert lcb_values(np.array([10.0]), np.array([0.0]), 3.0)[0] == 10.0

    def test_direct_arithmetic(self):
        assert lcb_values(np.array([10.0]), np.array([2.0]), 3.0)[0] == 4.0

    def test_with_calibrated_kappa(self):
        k = kappa(1, 16, 0.1)
        value = lcb_values(np.array([0.0]), np.array([1.0]), k)[0]
        assert value == pytest.approx(-3.3385, abs=5e-4)

    def test_model_lcb_consistent_with_predict(self, crystal_space):
        model = toy_model(crystal_space)
        mean, var = predict(model, 7)
        assert lcb(model, 7, 2.0) == pytest.approx(mean - 2.0 * math.sqrt(var))


class TestSelectGpLcb:
    def test_singleton(self, crystal_space):
        model = toy_model(crystal_space)
        assert choose("gp-lcb", model, [5], 2.0) == 5

    def test_uncertainty_bonus(self):
        # Equal means, larger sigma on the second candidate: lower LCB wins.
        scores = lcb_values(np.array([10.0, 10.0]), np.array([1.0, 2.0]), 2.0)
        assert int(np.argmin(scores)) == 1

    def test_matches_exhaustive_scan(self, crystal_space):
        model = toy_model(crystal_space, seed=5)
        k = kappa(10, 16, 0.1)
        chosen = choose("gp-lcb", model, range(16), k)
        brute = min(
            range(16),
            key=lambda i: predict(model, i)[0]
            - k * math.sqrt(max(predict(model, i)[1], 0.0)),
        )
        assert chosen == brute

    def test_empty_candidates_signaled(self, crystal_space):
        model = toy_model(crystal_space)
        with pytest.raises(NoCandidatesError):
            choose("gp-lcb", model, [], 2.0)


class TestExpectedImprovement:
    def test_zero_sigma_gives_zero(self):
        assert ei_values(np.array([5.0]), np.array([0.0]), 10.0)[0] == 0.0

    def test_at_the_incumbent(self):
        # mu == f_best: EI = sigma * phi(0).
        value = ei_values(np.array([10.0]), np.array([2.0]), 10.0)[0]
        assert value == pytest.approx(2 * stats.norm.pdf(0.0), abs=1e-12)
        assert value == pytest.approx(0.79788, abs=1e-5)

    def test_two_sigma_improvement(self):
        # f_best 10, mu 8, sigma 1: EI = 2*Phi(2) + phi(2).
        value = ei_values(np.array([8.0]), np.array([1.0]), 10.0)[0]
        oracle = 2 * stats.norm.cdf(2.0) + stats.norm.pdf(2.0)
        assert value == pytest.approx(float(oracle), abs=1e-12)
        assert value == pytest.approx(2.00849, abs=1e-5)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(1)
        mean = rng.normal(0, 50, size=1000)
        std = np.abs(rng.normal(0, 5, size=1000))
        assert np.all(ei_values(mean, std, 0.0) >= 0.0)

    def test_continuous_vanishing_at_tiny_sigma(self):
        value = ei_values(np.array([1.0]), np.array([1e-12]), 0.0)[0]
        assert abs(value) < 1e-9

    def test_model_level_wrapper(self, crystal_space):
        model = toy_model(crystal_space)
        mean, var = predict(model, 3)
        direct = ei_values(np.array([mean]), np.array([math.sqrt(var)]), 100.0)[0]
        assert expected_improvement(model, 3, 100.0) == pytest.approx(direct)


class TestSelectEi:
    def test_singleton(self, crystal_space):
        model = toy_model(crystal_space)
        assert choose("ei", model, [9], f_best=100.0) == 9

    def test_degenerate_certainty_picks_lowest_index(self):
        # All sigma 0 makes EI identically zero: lowest index wins the tie,
        # and the zero score trips a previously-raised running maximum.
        ei = ei_values(np.array([5.0, 6.0, 7.0]), np.zeros(3), 4.0)
        assert np.all(ei == 0.0)
        state = NtsState(score_max=1.0)
        state.observe(0.0)
        assert detect_trap(state, 0.0)

    def test_matches_exhaustive_scan(self, crystal_space):
        model = toy_model(crystal_space, seed=9)
        f_best = 95.0
        chosen = choose("ei", model, range(16), f_best=f_best)
        brute = max(range(16), key=lambda i: expected_improvement(model, i, f_best))
        assert chosen == brute

    def test_affine_rescaling_leaves_choices_unchanged(self, crystal_space):
        rng = np.random.default_rng(2)
        idx = [int(i) for i in rng.integers(0, 16, size=12)]
        y = rng.normal(200, 30, size=12)
        scale, shift = 3.7, -120.0
        model_a = fit_xy(crystal_space, idx, list(y), KernelConfig())
        model_b = fit_xy(crystal_space, idx, list(scale * y + shift), KernelConfig())
        f_best = float(np.median(y[:3]))
        assert choose("ei", model_a, range(16), f_best=f_best) == choose(
            "ei", model_b, range(16), f_best=scale * f_best + shift
        )
        k = kappa(12, 16, 0.1)
        assert choose("gp-lcb", model_a, range(16), k) == choose(
            "gp-lcb", model_b, range(16), k
        )


class TestTrapDetection:
    def test_first_iteration_never_trips(self):
        state = NtsState()
        state.observe(0.42)
        assert not detect_trap(state, 0.42)
        state2 = NtsState()
        state2.observe(0.0)
        assert not detect_trap(state2, 0.0)

    def test_ei_below_tenth_of_running_max(self):
        state = NtsState()
        state.observe(1.0)
        state.observe(0.05)
        assert detect_trap(state, 0.05)

    def test_cv_threshold_arithmetic(self):
        state = NtsState()
        state.observe(0.8)
        # A tenth of the running maximum is 0.08: only scores strictly
        # below that trip the trap.
        state.observe(0.009)
        assert detect_trap(state, 0.009)
        assert not detect_trap(state, 0.09)

    def test_cv_guard_near_zero_mean(self):
        assert coefficient_of_variation(0.0, 1.0) == pytest.approx(1e9)
        assert coefficient_of_variation(-10.0, 2.0) == pytest.approx(0.2)

    def test_maxima_non_decreasing(self):
        state = NtsState()
        rng = np.random.default_rng(0)
        last = 0.0
        for s in rng.uniform(0, 2, size=50):
            state.observe(float(s))
            assert state.score_max >= last
            last = state.score_max


class TestEscapeGoalOutlier:
    def test_max_count_removed(self):
        counts = {0: 6, 1: 2, 2: 1}
        chosen = escape_goal_outlier(counts, [0, 1, 2], select_fn=min)
        assert chosen == 1  # pool restricted to {1, 2}

    def test_all_equal_falls_back_to_full_pool(self):
        counts = {0: 2, 1: 2, 2: 2}
        seen = {}

        def record(pool):
            seen["pool"] = tuple(int(i) for i in pool)
            return int(pool[0])

        escape_goal_outlier(counts, [0, 1, 2], record)
        assert seen["pool"] == (0, 1, 2)

    def test_discarding_previous_argmin_changes_choice(self, crystal_space):
        model = toy_model(crystal_space, seed=5)
        k = kappa(10, 16, 0.1)
        unrestricted = choose("gp-lcb", model, range(16), k)
        counts = {unrestricted: 6}
        chosen = escape_goal_outlier(
            counts, range(16), lambda pool: choose("gp-lcb", model, pool, k)
        )
        assert chosen != unrestricted


class TestEscapeConstraint:
    def test_delta_direct_arithmetic(self):
        value = delta_metric(lcb_c=60.0, f_c_plus=65.0, improvement=5.0, f_best=100.0)
        assert value == pytest.approx(60 / 65 - 5 / 100, abs=1e-12)
        assert value == pytest.approx(0.87308, abs=1e-5)

    def test_tie_breaks_to_lower_index(self, crystal_space):
        goal = fit_xy(crystal_space, [0, 1], [10.0, 10.0], KernelConfig())
        cons = {"c": fit_xy(crystal_space, [0, 1], [50.0, 50.0], KernelConfig())}
        chosen = escape_constraint(goal.predict_all()[0], cons, [1, 0], {"c": 65.0},
                                   10.0, 2.0)
        assert chosen == 0

    def test_near_feasible_improving_beats_far_infeasible(self, crystal_space):
        # Constraint metric low (likely feasible) and goal clearly better
        # on set 4; set 12 predicted far above the bound with a worse goal.
        goal = fit_xy(
            crystal_space, [4, 4, 12, 12], [90.0, 92.0, 140.0, 150.0], KernelConfig()
        )
        cons = {
            "c": fit_xy(
                crystal_space, [4, 4, 12, 12], [60.0, 62.0, 200.0, 190.0],
                KernelConfig(),
            )
        }
        f_c_plus = {"c": 65.0}
        chosen = escape_constraint(goal.predict_all()[0], cons, [4, 12], f_c_plus,
                                   100.0, 2.0)
        assert chosen == 4
        # Ordering agrees with a brute-force per-set evaluation.
        deltas = {}
        for i in (4, 12):
            g_mean, _ = predict(goal, i)
            c_mean, c_var = predict(cons["c"], i)
            lcb_c = c_mean - 2.0 * math.sqrt(max(c_var, 0))
            deltas[i] = delta_metric(lcb_c, 65.0, 100.0 - g_mean, 100.0)
        assert min(deltas, key=deltas.get) == chosen

    def test_empty_pool_signaled(self, crystal_space):
        goal_mean = toy_model(crystal_space).predict_all()[0]
        with pytest.raises(NoCandidatesError):
            escape_constraint(goal_mean, {}, [], {}, 100.0, 2.0)


class TestEscapeAlternation:
    def test_modes_alternate_goal_first(self):
        state = NtsState()
        assert state.next_escape() == ESCAPE_GOAL
        assert state.next_escape() == ESCAPE_CONSTRAINT
        assert state.next_escape() == ESCAPE_GOAL


class TestLcbOrdering:
    def test_equal_sigma_reduces_to_mean_ordering_for_every_kappa(self):
        rng = np.random.default_rng(4)
        mean = rng.normal(0, 10, size=16)
        std = np.full(16, 1.7)
        for k in (0.5, 1.0, kappa(1, 16, 0.1), kappa(50, 16, 0.9), 10.0):
            scores = lcb_values(mean, std, k)
            assert int(np.argmin(scores)) == int(np.argmin(mean))


class TestEscapeConstraintMultiple:
    def test_per_set_delta_takes_minimum_across_constraints(self, crystal_space):
        goal = fit_xy(crystal_space, [0, 1, 2, 3], [100.0, 100.0, 100.0, 100.0],
                      KernelConfig())
        # Constraint "u" strongly favors set 0, constraint "v" set 3.
        cons = {
            "u": fit_xy(crystal_space, [0, 3], [10.0, 90.0], KernelConfig()),
            "v": fit_xy(crystal_space, [0, 3], [90.0, 5.0], KernelConfig()),
        }
        f_c_plus = {"u": 50.0, "v": 50.0}
        chosen = escape_constraint(goal.predict_all()[0], cons, [0, 3], f_c_plus,
                                   100.0, 1.0)
        # Each candidate's delta is its best constraint's ratio; compute
        # the oracle by hand over both constraints and both sets.
        deltas = {}
        for i in (0, 3):
            per_constraint = []
            g_mean, _ = predict(goal, i)
            for name, model in cons.items():
                c_mean, c_var = predict(model, i)
                lcb_c = c_mean - 1.0 * math.sqrt(max(c_var, 0.0))
                per_constraint.append(
                    delta_metric(lcb_c, f_c_plus[name], 100.0 - g_mean, 100.0)
                )
            deltas[i] = min(per_constraint)
        assert chosen == min(deltas, key=deltas.get)
