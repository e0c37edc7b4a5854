"""Robustness/optimality confidence metrics against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from apexopt import confidence
from apexopt.confidence import (
    SuboptimalityTrace,
    alpha_b1,
    alpha_b2,
    alpha_from_angle,
    fit_saturating_exponential,
    instant_suboptimality,
    kappa,
    minimize_bounded,
    optimality_alpha,
    robustness_beta,
    tangent_angle_deg,
)
from apexopt.domain import (
    CanonicalConstraint,
    ConfigError,
    ParameterDef,
    ParameterSpace,
)
from apexopt.surrogate import KernelConfig, fit_xy, kernel_matrix


def le_constraint(bound: float, p: float = 0.5) -> CanonicalConstraint:
    return CanonicalConstraint("m", 1.0, bound, p)


class TestRobustnessBeta:
    def test_six_of_six_at_median_is_63_64(self):
        # Six satisfying repetitions give at most 98% confidence at p=0.5.
        beta = robustness_beta([1.0] * 6, le_constraint(2.0))
        exact = Fraction(63, 64)
        assert beta == pytest.approx(float(exact), abs=1e-15)
        assert beta == pytest.approx(0.984375)

    def test_no_satisfying_sample_gives_zero(self):
        assert robustness_beta([5.0, 6.0], le_constraint(1.0)) == 0.0

    def test_single_satisfying_sample_at_median(self):
        assert robustness_beta([0.0], le_constraint(1.0)) == pytest.approx(0.5)

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            robustness_beta([], le_constraint(1.0))

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_matches_binomial_cdf(self, n, p):
        for l in range(n + 1):
            values = [0.0] * l + [2.0] * (n - l)
            beta = robustness_beta(values, le_constraint(1.0, p))
            oracle = stats.binom.cdf(l - 1, n, p) if l else 0.0
            assert beta == pytest.approx(float(oracle), abs=1e-12)

    @given(st.integers(1, 20), st.integers(0, 20))
    def test_monotone_in_satisfying_count(self, n, l):
        l = min(l, n)
        c = le_constraint(1.0)
        beta_l = robustness_beta([0.0] * l + [2.0] * (n - l), c)
        if l < n:
            beta_l1 = robustness_beta([0.0] * (l + 1) + [2.0] * (n - l - 1), c)
            assert beta_l1 >= beta_l


class TestKappa:
    def test_spot_value_crystal_first_trial(self):
        assert kappa(1, 16, 0.1) == pytest.approx(3.3385, abs=5e-4)

    def test_spot_value_rpl_trial_ten(self):
        assert kappa(10, 36, 0.1) == pytest.approx(4.688, abs=5e-4)

    def test_closed_form(self):
        for n, d, delta in [(1, 16, 0.1), (5, 36, 0.25), (40, 200, 0.9)]:
            expected = math.sqrt(2 * math.log(d * n**2 * math.pi**2 / (6 * delta)))
            assert kappa(n, d, delta) == pytest.approx(expected, abs=1e-12)

    def test_strictly_increasing_in_n(self):
        values = [kappa(n, 16, 0.1) for n in range(1, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_larger_delta_gives_smaller_kappa(self):
        assert kappa(3, 16, 0.9) < kappa(3, 16, 0.1)

    def test_invalid_delta(self):
        with pytest.raises(ConfigError):
            kappa(1, 16, 1.0)


class TestInstantSuboptimality:
    def test_flat_model_with_zero_sigma(self):
        # One-set space, repeated identical values, no observation noise:
        # the GP is exactly flat at the best median with sigma ~ 0.
        space = ParameterSpace([ParameterDef("p", (1.0,))])
        model = fit_xy(space, [0, 0, 0], [5.0, 5.0, 5.0],
                       KernelConfig(noise_variance=0.0))
        mean, var = model.predict_sets([0])
        tau = instant_suboptimality(5.0, mean, np.sqrt(var), kappa_n=3.0)
        assert tau == pytest.approx(0.0, abs=1e-3)

    def test_direct_subtraction(self):
        # best median 100 vs an LCB floor of 90.
        space = ParameterSpace([ParameterDef("p", (0.0, 1.0))])
        model = fit_xy(space, [0, 1], [100.0, 100.0],
                       KernelConfig(noise_variance=0.0))
        # sigma == 0 at both points, so the floor is the mean 100; shift
        # the best median to fabricate the 10-unit gap.
        mean, var = model.predict_sets([0, 1])
        tau = instant_suboptimality(110.0, mean, np.sqrt(var), kappa_n=2.0)
        assert tau == pytest.approx(10.0, abs=1e-3)

    def test_matches_hand_computed_gp(self):
        # Three-set toy; oracle computed with an explicit matrix inverse.
        space = ParameterSpace([ParameterDef("p", (0.0, 1.0, 2.0))])
        cfg = KernelConfig()
        idx, y = [0, 2], [4.0, 8.0]
        model = fit_xy(space, idx, y, cfg)
        coords = space.normalized_all()
        k = kernel_matrix(cfg, coords[idx], coords[idx])
        k_inv = np.linalg.inv(k + (cfg.noise_variance + cfg.jitter) * np.eye(2))
        k_star = kernel_matrix(cfg, coords[idx], coords)
        y_arr = np.array(y)
        mean = y_arr.mean()
        std = y_arr.std()
        mu = mean + std * (k_star.T @ k_inv @ ((y_arr - mean) / std))
        var = std**2 * (cfg.signal_variance - np.sum(k_star * (k_inv @ k_star), axis=0))
        kappa_n = 2.5
        floor = np.min(mu - kappa_n * np.sqrt(np.maximum(var, 0)))
        expected = 4.0 - floor
        pred_mean, pred_var = model.predict_sets([0, 1, 2])
        tau = instant_suboptimality(4.0, pred_mean, np.sqrt(pred_var), kappa_n)
        assert tau == pytest.approx(expected, abs=1e-8)


class TestOptimalityAlpha:
    def test_constant_growth_yields_near_zero(self):
        trace = SuboptimalityTrace()
        for _ in range(20):
            trace.record(3.0)
        alpha, theta = optimality_alpha(trace)
        assert alpha <= 5.0
        assert 43.0 <= theta <= 45.0

    def test_linear_trace_angle_within_grid_tolerance(self):
        x = np.linspace(0, 1, 30)
        b = fit_saturating_exponential(x, x.copy())
        assert 43.0 <= tangent_angle_deg(b) <= 45.0

    def test_saturated_trace_yields_high_alpha(self):
        trace = SuboptimalityTrace()
        for _ in range(8):
            trace.record(10.0)
        for _ in range(32):
            trace.record(0.0)
        alpha, theta = optimality_alpha(trace)
        assert alpha >= 90.0
        assert theta < 4.5

    def test_formula_midpoint(self):
        assert alpha_from_angle(22.5) == pytest.approx(50.0)
        assert alpha_from_angle(45.0) == 0.0
        assert alpha_from_angle(90.0) == 0.0
        assert alpha_from_angle(0.0) == 100.0

    def test_fewer_than_three_points_gives_zero(self):
        trace = SuboptimalityTrace()
        trace.record(1.0)
        trace.record(1.0)
        assert optimality_alpha(trace)[0] == 0.0

    def test_degenerate_all_zero_trace_is_saturated(self):
        trace = SuboptimalityTrace()
        for _ in range(10):
            trace.record(0.0)
        assert optimality_alpha(trace)[0] == 100.0

    def test_carry_forward_on_undefined(self):
        trace = SuboptimalityTrace()
        assert trace.record(None) == 0.0
        trace.record(4.0)
        assert trace.record(None) == 4.0
        assert trace.cumulative == [0.0, 4.0, 8.0]

    def test_alpha_in_range_on_random_traces(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            trace = SuboptimalityTrace()
            for tau in rng.normal(0, 5, size=rng.integers(3, 40)):
                trace.record(float(tau))
            alpha, _ = optimality_alpha(trace)
            assert 0.0 <= alpha <= 100.0


def formula_curves(x: np.ndarray) -> np.ndarray:
    b = confidence._GRID[:, None]
    return np.expm1(-b * x) / np.expm1(-b)


def formula_fit(x: np.ndarray, y: np.ndarray) -> float:
    """The α fit written out directly: fresh arrays, the curve formula inline."""
    grid = confidence._GRID
    residuals = formula_curves(x) - y[None, :]
    errors = np.einsum("ij,ij->i", residuals, residuals)
    best = int(np.argmin(errors))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    if lo == hi:
        return float(grid[best])

    def sse(b):
        r = np.expm1(-b * x) / np.expm1(-b) - y
        return float(r @ r)

    b, fun = minimize_bounded(sse, lo, hi, 1e-6)
    return b if fun <= errors[best] else float(grid[best])


def formula_alpha(trace: SuboptimalityTrace) -> tuple[float, float]:
    n = len(trace)
    t = np.asarray(trace.cumulative, dtype=float)
    lo, hi = float(np.min(t)), float(np.max(t))
    if hi == lo:
        return 100.0, 0.0
    x = np.arange(n, dtype=float) / (n - 1)
    theta = min(45.0, tangent_angle_deg(formula_fit(x, (t - lo) / (hi - lo))))
    return alpha_from_angle(theta), theta


def random_trace(rng, n: int) -> SuboptimalityTrace:
    trace = SuboptimalityTrace()
    decay = rng.uniform(0.0, 1.0, size=n) ** rng.uniform(0.0, 4.0)
    for tau in rng.normal(rng.uniform(-1.0, 3.0), 5.0, size=n) * decay:
        trace.record(float(tau))
    return trace


class _UnreadableCache(dict):
    def get(self, *args):
        raise AssertionError("the grid curve cache was read")

    __getitem__ = __contains__ = get


class TestGridCurveCache:
    BUDGET = 1_900_000  # bytes the kept curve matrices may hold in all

    def test_grid_curves_equal_the_formula(self):
        for n in range(3, 201):
            x = np.arange(n, dtype=float) / (n - 1)
            assert np.array_equal(confidence._grid_curves(x), formula_curves(x))

    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "warm"])
    def test_alpha_equals_the_formula_on_both_sides_of_the_bound(
        self, monkeypatch, cached
    ):
        monkeypatch.setattr(confidence, "_curve_cache", {})
        rng = np.random.default_rng(11)
        for n in range(3, 201):
            trace = random_trace(rng, n)
            if cached:
                optimality_alpha(random_trace(rng, n))
            assert optimality_alpha(trace) == formula_alpha(trace), n

    def test_cache_stays_within_its_budget(self, monkeypatch):
        monkeypatch.setattr(confidence, "_curve_cache", {})
        rng = np.random.default_rng(12)
        for n in range(3, 401):
            optimality_alpha(random_trace(rng, n))
        cache = confidence._curve_cache
        assert max(cache) <= confidence._CURVE_CACHE_MAX_N
        assert sum(c.nbytes for c in cache.values()) <= self.BUDGET

    def test_cached_curves_are_read_only(self, monkeypatch):
        monkeypatch.setattr(confidence, "_curve_cache", {})
        optimality_alpha(random_trace(np.random.default_rng(13), 10))
        with pytest.raises(ValueError):
            confidence._curve_cache[10][0, 0] = 0.0

    def test_non_uniform_x_does_not_read_the_cache(self, monkeypatch):
        monkeypatch.setattr(confidence, "_curve_cache", _UnreadableCache())
        rng = np.random.default_rng(14)
        for n in (3, 20, 48, 49, 120):
            x = np.sort(rng.uniform(0.0, 1.0, size=n))
            y = np.sort(rng.uniform(0.0, 1.0, size=n))
            assert fit_saturating_exponential(x, y) == formula_fit(x, y)


class TestBoundedBrent:
    def test_equals_scipy_bounded_on_random_traces(self):
        from scipy.optimize import minimize_scalar

        from apexopt.confidence import _GRID, _sse

        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(3, 201))
            growth = rng.uniform(0.1, 2.0, size=n) ** np.linspace(0, rng.uniform(0, 5), n)
            t = np.cumsum(rng.exponential(size=n) * growth)
            x = np.arange(n, dtype=float) / (n - 1)
            y = (t - t.min()) / (t.max() - t.min())
            cell = int(rng.integers(1, len(_GRID) - 1))
            lo, hi = _GRID[cell - 1], _GRID[cell + 1]
            ref = minimize_scalar(_sse, args=(x, y), bounds=(lo, hi),
                                  method="bounded", options={"xatol": 1e-6})
            b, fun = minimize_bounded(lambda v: _sse(v, x, y), lo, hi, 1e-6)
            assert b == float(ref.x) and fun == float(ref.fun)

    def test_finds_an_interior_minimum(self):
        b, fun = minimize_bounded(lambda v: (v - 0.3) ** 2 + 1.0, 0.0, 2.0, 1e-9)
        assert b == pytest.approx(0.3, abs=1e-8) and fun == pytest.approx(1.0)


class TestBaselineAlphas:
    def test_unchanged_best_gives_100(self):
        assert alpha_b1(5.0, 5.0, 10.0) == 100.0

    def test_full_range_jump_gives_0(self):
        assert alpha_b1(15.0, 5.0, 10.0) == 0.0

    def test_quarter_range_gives_75(self):
        assert alpha_b1(7.5, 5.0, 10.0) == pytest.approx(75.0)

    def test_zero_range_gives_100(self):
        assert alpha_b1(5.0, 5.0, 0.0) == 100.0

    def test_improving_jump_is_clamped(self):
        # A literal signed reading would exceed 100 for improvement.
        assert alpha_b1(0.0, 15.0, 10.0) == 0.0
        assert alpha_b1(4.0, 5.0, 10.0) == pytest.approx(90.0)

    def test_b2_same_set_same_value(self, crystal_space):
        assert alpha_b2(100.0, crystal_space, 3, 3, eta=0.5) == pytest.approx(100.0)

    def test_b2_opposite_corner_same_value(self, crystal_space):
        # Value term saturates, distance term vanishes: 50*1 + 50*0.
        assert alpha_b2(100.0, crystal_space, 0, 15, eta=0.5) == pytest.approx(50.0)

    def test_b2_eta_near_one_recovers_b1(self, crystal_space):
        value = alpha_b2(80.0, crystal_space, 0, 15, eta=1 - 1e-9)
        assert value == pytest.approx(80.0, abs=1e-5)

    @given(
        current=st.floats(-1e6, 1e6),
        previous=st.floats(-1e6, 1e6),
        goal_range=st.floats(1e-6, 1e6),
    )
    def test_b1_clamps_like_np_clip(self, current, previous, goal_range):
        ratio = abs(current - previous) / goal_range
        expected = float(np.clip((1.0 - ratio) * 100.0, 0.0, 100.0))
        assert alpha_b1(current, previous, goal_range) == expected

    @given(
        value=st.floats(-1e4, 1e4),
        a=st.integers(0, 15),
        b=st.integers(0, 15),
        eta=st.floats(0.01, 0.99),
    )
    def test_b2_clamps_like_np_clip(self, value, a, b, eta):
        space = ParameterSpace(
            [ParameterDef("p", (-5.0, -3.0, -1.0, 0.0)),
             ParameterDef("q", (1.0, 2.0, 3.0, 4.0))]
        )
        d = np.linalg.norm(space.normalized_all()[a] - space.normalized_all()[b])
        blended = eta * (value / 100.0) + (1.0 - eta) * (1.0 - float(d) / math.sqrt(2))
        expected = float(np.clip(blended * 100.0, 0.0, 100.0))
        assert alpha_b2(value, space, a, b, eta) == expected

    def test_b2_range(self, crystal_space):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = alpha_b2(
                float(rng.uniform(0, 100)),
                crystal_space,
                int(rng.integers(16)),
                int(rng.integers(16)),
                eta=float(rng.uniform(0.01, 0.99)),
            )
            assert 0.0 <= v <= 100.0
