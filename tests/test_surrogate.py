"""GP surrogate tests, checked against an explicit-inverse oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apexopt import surrogate
from apexopt.domain import (
    ConfigError, ConstraintSpec, MetricSpec, Observation, ParameterDef,
    ParameterSpace, Requirement,
)
from apexopt.surrogate import (
    KERNEL_MATERN52,
    KERNEL_RBF,
    KernelConfig,
    KernelRows,
    fit_many_xy,
    fit_xy,
    kernel_matrix,
    predict,
)


def dense_gp_oracle(space, set_indices, values, cfg, query_indices):
    """Full-matrix-inverse GP predictions, standardization included."""
    coords = space.normalized_all()[np.asarray(set_indices, int)]
    y = np.asarray(values, float)
    mean, std = y.mean(), y.std() or 1.0
    k = kernel_matrix(cfg, coords, coords)
    k_inv = np.linalg.inv(k + (cfg.noise_variance + cfg.jitter) * np.eye(len(y)))
    q = space.normalized_all()[np.asarray(query_indices, int)]
    k_star = kernel_matrix(cfg, coords, q)
    mu_s = k_star.T @ k_inv @ ((y - mean) / std)
    var_s = cfg.signal_variance - np.sum(k_star * (k_inv @ k_star), axis=0)
    return mean + std * mu_s, std**2 * np.maximum(var_s, 0.0)


def per_set_mean_oracle(space, set_indices, values, cfg, query_indices):
    """GP on the per-set means, each observed with noise (noise + jitter) / k
    for k readings; standardized over every trial. It solves with
    ``np.linalg.solve``: an explicit inverse loses more than the property
    test's tolerance where the variances are differences of numbers near
    the signal variance."""
    idx = np.asarray(set_indices, int)
    y = np.asarray(values, float)
    mean, std = y.mean(), y.std() or 1.0
    sets = sorted(set(idx.tolist()))
    counts = np.array([np.sum(idx == i) for i in sets], float)
    means = np.array([y[idx == i].mean() for i in sets])
    coords = space.normalized_all()[sets]
    a = kernel_matrix(cfg, coords, coords) + np.diag((cfg.noise_variance + cfg.jitter)
                                                      / counts)
    q = space.normalized_all()[np.asarray(query_indices, int)]
    k_star = kernel_matrix(cfg, coords, q)
    mu_s = k_star.T @ np.linalg.solve(a, (means - mean) / std)
    var_s = cfg.signal_variance - np.sum(k_star * np.linalg.solve(a, k_star), axis=0)
    return mean + std * mu_s, std**2 * np.maximum(var_s, 0.0)


def kernel(cfg, u, v):
    """Covariance between two normalized coordinate vectors."""
    return float(kernel_matrix(cfg, np.asarray(u, float), np.asarray(v, float))[0, 0])


def broadcast_kernel_matrix(cfg, u, v):
    """The kernel built from one (n, m, b) broadcast of differences."""
    d2 = np.sum((u[:, None, :] - v[None, :, :]) ** 2, axis=-1)
    if cfg.kind == KERNEL_RBF:
        return cfg.signal_variance * np.exp(-d2 / (2.0 * cfg.length_scale**2))
    r = np.sqrt(np.maximum(d2, 0.0)) / cfg.length_scale
    s5r = math.sqrt(5.0) * r
    return cfg.signal_variance * (1.0 + s5r + 5.0 * r**2 / 3.0) * np.exp(-s5r)


def random_space(rng, dims):
    return ParameterSpace(
        [
            ParameterDef(f"p{d}", tuple(sorted(rng.uniform(-5, 5, size=rng.integers(2, 6)))))
            for d in range(dims)
        ]
    )


class TestKernel:
    def test_zero_distance_gives_signal_variance(self):
        cfg = KernelConfig()
        assert kernel(cfg, [0.3, 0.7], [0.3, 0.7]) == pytest.approx(1.0)

    def test_unit_distance_rbf(self):
        cfg = KernelConfig(length_scale=1.0)
        value = kernel(cfg, [0.0], [1.0])
        assert value == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_monotone_decay_to_zero(self):
        cfg = KernelConfig()
        distances = np.linspace(0, 10, 50)
        values = [kernel(cfg, [0.0], [d]) for d in distances]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-10

    def test_symmetry(self):
        cfg = KernelConfig(kind="matern52", length_scale=0.7, signal_variance=2.0)
        u, v = [0.1, 0.9], [0.8, 0.2]
        assert kernel(cfg, u, v) == pytest.approx(kernel(cfg, v, u))

    def test_matern_at_zero(self):
        cfg = KernelConfig(kind="matern52", signal_variance=3.0)
        assert kernel(cfg, [0.5], [0.5]) == pytest.approx(3.0)


class TestKernelConfig:
    @pytest.mark.parametrize(
        "field", ["length_scale", "signal_variance", "noise_variance", "jitter"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            KernelConfig(**{field: value})


class TestKernelMatrix:
    @pytest.mark.parametrize("kind", [KERNEL_RBF, KERNEL_MATERN52])
    def test_matches_broadcast_bitwise_up_to_seven_dims(self, kind):
        rng = np.random.default_rng(5)
        cfg = KernelConfig(kind=kind, length_scale=0.7, signal_variance=1.3)
        for b in range(1, 8):
            u, v = rng.uniform(size=(9, b)), rng.uniform(size=(13, b))
            assert np.array_equal(
                kernel_matrix(cfg, u, v), broadcast_kernel_matrix(cfg, u, v)
            ), f"b={b}"

    @pytest.mark.parametrize("kind", [KERNEL_RBF, KERNEL_MATERN52])
    def test_matches_broadcast_closely_from_eight_dims(self, kind):
        # NumPy sums eight or more terms in a different order.
        rng = np.random.default_rng(6)
        cfg = KernelConfig(kind=kind, length_scale=0.7)
        for b in range(8, 13):
            u, v = rng.uniform(size=(9, b)), rng.uniform(size=(13, b))
            np.testing.assert_allclose(
                kernel_matrix(cfg, u, v), broadcast_kernel_matrix(cfg, u, v),
                rtol=0, atol=1e-15, err_msg=f"b={b}",
            )


class TestKernelRows:
    @pytest.mark.parametrize("kind", [KERNEL_RBF, KERNEL_MATERN52])
    def test_kept_rows_equal_kernel_matrix_bitwise(self, kind):
        space = ParameterSpace([
            ParameterDef("a", (0.0, 1.0, 2.5, 4.0, 7.0)),
            ParameterDef("b", (1.0, 2.0, 3.0, 5.0)),
            ParameterDef("c", (-1.0, 0.0, 3.0)),
        ])
        coords = space.normalized_all()
        cfg = KernelConfig(kind=kind, length_scale=0.6, signal_variance=1.7)
        rows = KernelRows(space, cfg, ("m",))
        rng = np.random.default_rng(11)
        trace: list[int] = []
        for size in (1, 3, 1, 8, 20):
            new = rng.choice(space.n_sets, size=size).tolist()
            trace += new
            fit_many_xy(space, new, {"m": [float(i) for i in new]}, cfg, rows)
            # One row per distinct set, in the order the sets were first tried.
            sets = rows._order
            assert sets.tolist() == list(dict.fromkeys(trace))
            assert len(rows) == len(sets)
            kept = rows._rows[: len(rows)]
            cols = rng.choice(space.n_sets, size=7)
            u = coords[sets]
            assert np.array_equal(kept[:, sets], kernel_matrix(cfg, u, u))
            assert np.array_equal(kept[:, cols], kernel_matrix(cfg, u, coords[cols]))
            assert np.array_equal(kept, kernel_matrix(cfg, u, coords))

    def test_rows_of_another_kernel_are_rejected(self, crystal_space):
        rows = KernelRows(crystal_space, KernelConfig(length_scale=0.5), ("m",))
        with pytest.raises(ConfigError, match="another"):
            fit_many_xy(crystal_space, [0, 1], {"m": [1.0, 2.0]}, KernelConfig(),
                        rows)

    def test_run_computes_each_tried_sets_row_once(self, monkeypatch):
        from apexopt.domain import (
            ConstraintSpec, MetricSpec, Requirement, TerminationCriteria,
        )
        from apexopt.engine import Engine, EngineConfig
        from apexopt.executor import SyntheticExecutor, SyntheticSpec

        space = ParameterSpace([
            ParameterDef("a", tuple(float(i) for i in range(8))),
            ParameterDef("b", tuple(float(i) for i in range(6))),
        ])
        coords = space.normalized_all()
        energy = 100.0 + (coords[:, 0] - 0.6) ** 2 * 50 + coords[:, 1] * 10
        prr = 60.0 + coords[:, 1] * 30
        spec = SyntheticSpec(space, {"energy": energy, "prr": prr},
                             {"energy": 1.0, "prr": 3.0})
        req = Requirement(goal=MetricSpec("energy", "minimize"),
                          constraints=(ConstraintSpec("prr", ">=", 70.0, 0.5),))
        calls = []
        real = surrogate.kernel_matrix

        def spy(cfg, u, v):
            calls.append((np.asarray(u).shape[0], np.asarray(v).shape[0]))
            return real(cfg, u, v)

        monkeypatch.setattr(surrogate, "kernel_matrix", spy)
        cfg = EngineConfig(space=space, requirement=req,
                           termination=TerminationCriteria(max_trials=60),
                           selector="gp-lcb", seed=1)
        result = Engine(cfg, SyntheticExecutor(spec, 1)).run()
        tried = {t.set_index for t in result.trials}
        assert result.n_trials == 60 and len(tried) < 60
        assert sum(u for u, _ in calls) == len(tried)
        assert all(v == space.n_sets and u < space.n_sets for u, v in calls)


class TestSufficientStatistics:
    def test_repeats_equal_per_set_means_with_scaled_noise(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            space = random_space(rng, int(rng.integers(1, 4)))
            n = int(rng.integers(1, 60))
            idx = [int(i) for i in rng.integers(0, space.n_sets, size=n)]
            y = [float(v) for v in rng.normal(40, 15, size=n)]
            cfg = KernelConfig(
                kind=str(rng.choice([KERNEL_RBF, KERNEL_MATERN52])),
                length_scale=float(rng.uniform(0.3, 2.0)),
                noise_variance=float(rng.uniform(0.0, 0.5)),
                jitter=1e-6,
            )
            queries = range(space.n_sets)
            mean, var = fit_xy(space, idx, y, cfg).predict_sets(queries)
            o_mean, o_var = per_set_mean_oracle(space, idx, y, cfg, queries)
            np.testing.assert_allclose(mean, o_mean, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(var, o_var, rtol=1e-10, atol=1e-10)

    def test_zero_noise_with_duplicate_inputs_fits(self, crystal_space):
        cfg = KernelConfig(noise_variance=0.0)
        idx = [3, 3, 3, 7, 7, 11]
        y = [10.0, 14.0, 12.0, 30.0, 32.0, 20.0]
        model = fit_xy(crystal_space, idx, y, cfg)
        mean, var = model.predict_sets([3, 7, 11])
        np.testing.assert_allclose(mean, [12.0, 31.0, 20.0], atol=1e-3)
        assert np.all(np.isfinite(var)) and np.all(var >= 0.0)

    def test_factor_has_one_row_per_distinct_set(self, crystal_space, monkeypatch):
        rows = []
        real = surrogate.dpotrf

        def spy(a, *args, **kwargs):
            rows.append(a.shape[0])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(surrogate, "dpotrf", spy)
        idx = [0, 5, 5, 9, 0, 5, 9, 9, 9, 12]
        fit_xy(crystal_space, idx, [float(i) for i in range(10)])
        fit_many_xy(crystal_space, idx, {"a": [1.0] * 10, "b": list(range(10))})
        assert rows == [len(set(idx))] * 2


def potrf_rows(monkeypatch) -> list[int]:
    """The row count of every ``dpotrf`` call from here on."""
    rows = []
    real = surrogate.dpotrf

    def spy(a, *args, **kwargs):
        rows.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(surrogate, "dpotrf", spy)
    return rows


def kept_state(rows: KernelRows) -> dict:
    """Every attribute of ``rows``, its arrays copied; of the target buffer,
    the targets it holds."""
    state = {k: np.copy(v) if isinstance(v, np.ndarray) else v
             for k, v in vars(rows).items()}
    state["_y"] = state["_y"][:, :rows.n_trials]
    return state


def assert_state_equal(rows: KernelRows, kept: dict) -> None:
    state = kept_state(rows)
    assert state.keys() == kept.keys()
    for name, value in kept.items():
        now = state[name]
        if isinstance(value, np.ndarray):
            assert now.dtype == value.dtype and _bits(now) == _bits(value), name
        else:
            assert now == value, name


def _bits(a: np.ndarray) -> tuple:
    return a.shape, a.tobytes()


class TestKeptFactor:
    """The factor ``KernelRows`` keeps from one fit to the next."""

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 8), min_size=1, max_size=3).filter(
            lambda s: math.prod(s) <= 64),
        seed=st.integers(0, 2**32 - 1),
        trace=st.lists(st.tuples(st.booleans(), st.integers(0, 10**6),
                                 st.floats(0.0, 200.0), st.floats(0.0, 100.0)),
                       min_size=1, max_size=40),
        kind=st.sampled_from([KERNEL_RBF, KERNEL_MATERN52]),
        length_scale=st.floats(0.3, 2.0),
        noise=st.floats(0.0, 0.5),
    )
    # Variances near 1e-6, each the difference of two numbers near 1; an
    # oracle with an explicit inverse missed the tolerance here.
    @example(sizes=[7], seed=0,
             trace=[(False, 0, 0.0, 0.0), (False, 1, 0.0, 0.0),
                    (False, 47, 0.0, 0.0), (False, 408, 0.0, 0.0)],
             kind=KERNEL_RBF, length_scale=1.0, noise=0.0)
    def test_every_update_matches_the_per_set_oracle(self, sizes, seed, trace, kind,
                                                     length_scale, noise):
        from apexopt.engine import AnalysisState

        rng = np.random.default_rng(seed)
        space = ParameterSpace([
            ParameterDef(f"p{d}", tuple(np.sort(rng.choice(50, size, replace=False))
                                        .astype(float)))
            for d, size in enumerate(sizes)
        ])
        cfg = KernelConfig(kind=kind, length_scale=length_scale,
                           noise_variance=noise, jitter=1e-6)
        req = Requirement(goal=MetricSpec("energy", "minimize"),
                          constraints=(ConstraintSpec("prr", ">=", 50.0, 0.5),))
        state = AnalysisState(space, req, 0.1, cfg)
        tried: list[int] = []
        goal: list[float] = []
        constraint: list[float] = []
        every_set = range(space.n_sets)
        for n, (repeat, pick, energy, prr) in enumerate(trace, start=1):
            # A repeat of a tried set, or any set (often a new one).
            idx = tried[pick % len(tried)] if repeat and tried else pick % space.n_sets
            state.update(Observation(n, idx, {"energy": energy, "prr": prr}))
            tried.append(idx)
            goal.append(energy)
            constraint.append(-prr)
            for (mean, var), values in (
                ((state.goal_mean, state.goal_std**2), goal),
                (state.constraint_models["prr"].predict_all(), constraint),
            ):
                o_mean, o_var = per_set_mean_oracle(space, tried, values, cfg, every_set)
                np.testing.assert_allclose(mean, o_mean, rtol=1e-8,
                                           atol=1e-8 * np.abs(o_mean).max())
                np.testing.assert_allclose(var, o_var, rtol=1e-8,
                                           atol=1e-8 * o_var.max())

    def test_a_fit_factors_only_the_rows_from_the_changed_set_on(
            self, crystal_space, monkeypatch):
        factored = potrf_rows(monkeypatch)
        rows = KernelRows(crystal_space, KernelConfig(), ("m",))
        trials = []
        # Sets 3, 7, 1 and 12 take rows 0..3 in the order they are first tried.
        for idx, rows_factored in ((3, 1), (7, 1), (1, 1), (12, 1),
                                   (7, 3), (3, 4), (12, 1), (5, 1), (1, 3)):
            trials.append(idx)
            factored.clear()
            fit_many_xy(crystal_space, [idx], {"m": [float(idx)]}, KernelConfig(),
                        rows=rows)
            assert factored == [rows_factored], (idx, factored)
        factored.clear()
        fit_xy(crystal_space, trials, [float(i) for i in trials])
        assert factored == [len(set(trials))]

    # The overflowing sum warns before the rule rejects it.
    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
    def test_trials_that_cannot_be_added_are_rejected(self, crystal_space,
                                                      monkeypatch):
        rows = KernelRows(crystal_space, KernelConfig(), ("m",))
        last = fit_many_xy(crystal_space, [4, 9, 2], {"m": [1.0, 5.0, 2.0]},
                           KernelConfig(), rows=rows)["m"]
        kept = kept_state(rows)
        other_space = ParameterSpace(crystal_space.defs)
        for space, sets, values, cfg, error in (
            (crystal_space, [3], {"n": [3.0]}, KernelConfig(), ConfigError),
            (crystal_space, [3], {"m": [3.0], "n": [0.0]}, KernelConfig(), ConfigError),
            (other_space, [3], {"m": [3.0]}, KernelConfig(), ConfigError),
            (crystal_space, [3], {"m": [3.0]}, KernelConfig(length_scale=0.5),
             ConfigError),
            (crystal_space, [16], {"m": [3.0]}, KernelConfig(), ConfigError),
            (crystal_space, [3, -1], {"m": [3.0, 1.0]}, KernelConfig(), ConfigError),
            (crystal_space, [3], {"m": [math.nan]}, KernelConfig(), ValueError),
            # Finite targets whose sum overflows; past the buffer's capacity.
            (crystal_space, [3, 3], {"m": [1e308, 1e308]}, KernelConfig(), ValueError),
            (crystal_space, [3] * 70, {"m": [3.0] * 69 + [math.nan]}, KernelConfig(),
             ValueError),
            (crystal_space, [], {"m": []}, KernelConfig(), ConfigError),
        ):
            with pytest.raises(error):
                fit_many_xy(space, sets, values, cfg, rows=rows)
            assert_state_equal(rows, kept)
        last.predict_all()
        # A trial that can be added is then a new fit: the last model is
        # stale, and only the new set's row is factored.
        factored = potrf_rows(monkeypatch)
        again = fit_many_xy(crystal_space, [3], {"m": [3.0]}, KernelConfig(),
                            rows=rows)["m"]
        assert factored == [1]
        with pytest.raises(RuntimeError, match="stale"):
            last.predict_all()
        mean, var = again.predict_all()
        o_mean, o_var = per_set_mean_oracle(crystal_space, [4, 9, 2, 3],
                                            [1.0, 5.0, 2.0, 3.0], KernelConfig(),
                                            range(16))
        np.testing.assert_allclose(mean, o_mean, rtol=1e-10)
        np.testing.assert_allclose(var, o_var, rtol=1e-10)

    def test_a_model_is_stale_after_the_next_fit_on_its_rows(self, crystal_space):
        rows = KernelRows(crystal_space, KernelConfig(), ("m",))
        first = fit_many_xy(crystal_space, [0, 5], {"m": [1.0, 2.0]}, KernelConfig(),
                            rows=rows)["m"]
        own = fit_xy(crystal_space, [0, 5], [1.0, 2.0])
        before = own.predict_all()
        fit_many_xy(crystal_space, [5], {"m": [4.0]}, KernelConfig(), rows=rows)
        for predict_one in (first.predict_all, lambda: first.predict_sets([1]),
                            lambda: predict(first, 1)):
            with pytest.raises(RuntimeError, match="stale"):
                predict_one()
        # A model on rows of its own is not touched by that fit.
        assert all(np.array_equal(a, b) for a, b in zip(own.predict_all(), before))

    def test_escalation_past_the_ceiling_keeps_the_factor(self, crystal_space,
                                                          monkeypatch):
        rows = KernelRows(crystal_space, KernelConfig(), ("m",))
        fit_many_xy(crystal_space, [2, 8, 2], {"m": [1.0, 3.0, 2.0]}, KernelConfig(),
                    rows=rows)
        kept = kept_state(rows)
        tries = []
        monkeypatch.setattr(surrogate, "dpotrf",
                            lambda a, **kw: (tries.append(a.shape[0]) or a, 1))
        with pytest.raises(surrogate.FitError, match="jitter"):
            fit_many_xy(crystal_space, [8], {"m": [5.0]}, KernelConfig(), rows=rows)
        # cfg.jitter on the trailing rows, then 1e-7 .. 1e-4 on every row.
        assert tries == [1, 2, 2, 2, 2]
        assert_state_equal(rows, kept)


class TestFitPredict:
    def test_single_observation(self, crystal_space):
        cfg = KernelConfig(noise_variance=0.0)
        model = fit_xy(crystal_space, [5], [42.0], cfg)
        mean, var = predict(model, 5)
        assert mean == pytest.approx(42.0, abs=1e-6)
        # Far away the model reverts to the standardized prior mean.
        far_mean, far_var = predict(model, 10)
        assert abs(far_mean - 42.0) < abs(mean - 41.0)
        assert far_var >= var

    def test_interpolation_limit_with_zero_noise(self, crystal_space):
        cfg = KernelConfig(noise_variance=0.0, jitter=1e-12)
        idx = [0, 3, 5, 9, 12, 15]
        y = [1.0, 4.0, 2.0, 8.0, 3.0, 7.0]
        model = fit_xy(crystal_space, idx, y, cfg)
        for i, target in zip(idx, y):
            mean, var = predict(model, i)
            assert mean == pytest.approx(target, abs=1e-4)
            assert var < 1e-6

    def test_prior_reversion_far_from_data(self):
        space = ParameterSpace([ParameterDef("p", tuple(np.linspace(0, 100, 50)))])
        cfg = KernelConfig(length_scale=0.02, noise_variance=0.0)
        model = fit_xy(space, [0, 1], [10.0, 20.0], cfg)
        mean, var = predict(model, 49)
        assert mean == pytest.approx(15.0, abs=1e-6)  # the data mean
        assert var == pytest.approx(cfg.signal_variance * model.y_std**2, rel=1e-6)

    def test_conflicting_duplicates_absorbed_by_noise(self, crystal_space):
        model = fit_xy(crystal_space, [3, 3], [10.0, 20.0], KernelConfig())
        mean, var = predict(model, 3)
        assert 10.0 < mean < 20.0
        assert var > 0.0

    def test_duplicates_without_noise_need_jitter(self, crystal_space):
        cfg = KernelConfig(noise_variance=0.0)
        model = fit_xy(crystal_space, [3, 3], [10.0, 10.0], cfg)
        mean, _ = predict(model, 3)
        assert mean == pytest.approx(10.0, abs=1e-3)

    def test_six_point_fit_matches_oracle(self, crystal_space):
        cfg = KernelConfig()
        idx = [0, 2, 5, 9, 12, 15]
        y = [182.0, 195.5, 188.0, 209.5, 191.2, 200.3]
        model = fit_xy(crystal_space, idx, y, cfg)
        mean, var = model.predict_sets(range(16))
        o_mean, o_var = dense_gp_oracle(crystal_space, idx, y, cfg, range(16))
        np.testing.assert_allclose(mean, o_mean, rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(var, o_var, rtol=1e-8, atol=1e-9)

    def test_permutation_invariance(self, crystal_space):
        rng = np.random.default_rng(3)
        idx = list(rng.integers(0, 16, size=12))
        y = list(rng.normal(100, 10, size=12))
        model_a = fit_xy(crystal_space, idx, y, KernelConfig())
        perm = rng.permutation(12)
        model_b = fit_xy(
            crystal_space, [idx[i] for i in perm], [y[i] for i in perm], KernelConfig()
        )
        mean_a, var_a = model_a.predict_sets(range(16))
        mean_b, var_b = model_b.predict_sets(range(16))
        np.testing.assert_allclose(mean_a, mean_b, atol=1e-10)
        np.testing.assert_allclose(var_a, var_b, atol=1e-10)

    def test_monotone_uncertainty_when_adding_data(self):
        # On the standardized scale (variance / y_std**2) the posterior
        # variance at the new point can only shrink.
        rng = np.random.default_rng(11)
        space = ParameterSpace(
            [ParameterDef("a", tuple(range(6))), ParameterDef("b", tuple(range(6)))]
        )
        cfg = KernelConfig()
        for _ in range(25):
            n = int(rng.integers(2, 10))
            idx = [int(i) for i in rng.integers(0, 36, size=n)]
            y = [float(v) for v in rng.normal(0, 1, size=n)]
            new_idx = int(rng.integers(0, 36))
            before = fit_xy(space, idx, y, cfg)
            after = fit_xy(space, idx + [new_idx], y + [0.5], cfg)
            _, var_before = predict(before, new_idx)
            _, var_after = predict(after, new_idx)
            assert (var_after / after.y_std**2
                    <= var_before / before.y_std**2 + 1e-8)

    def test_fit_many_shares_inputs(self, crystal_space):
        idx = [0, 4, 8, 12]
        models = fit_many_xy(
            crystal_space,
            idx,
            {"a": [1.0, 2.0, 3.0, 4.0], "b": [10.0, 0.0, 5.0, 2.5]},
        )
        for name, values in (("a", [1.0, 2.0, 3.0, 4.0]), ("b", [10.0, 0.0, 5.0, 2.5])):
            single = fit_xy(crystal_space, idx, values)
            mean_m, var_m = models[name].predict_sets(range(16))
            mean_s, var_s = single.predict_sets(range(16))
            np.testing.assert_allclose(mean_m, mean_s, atol=1e-12)
            np.testing.assert_allclose(var_m, var_s, atol=1e-12)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            space = random_space(rng, int(rng.integers(1, 4)))
            n = int(rng.integers(1, 30))
            idx = [int(i) for i in rng.integers(0, space.n_sets, size=n)]
            y = [float(v) for v in rng.normal(50, 20, size=n)]
            model = fit_xy(space, idx, y, KernelConfig())
            _, var = model.predict_all()
            assert np.all(var >= 0.0)

    def test_degenerate_data_raises_fit_error(self, crystal_space):
        # Forcing both noise and jitter escalation to fail requires a
        # singular kernel that stays singular at the jitter ceiling, which
        # a PSD kernel plus positive jitter never is; instead check the
        # guard on zero observations.
        from apexopt.domain import ConfigError

        with pytest.raises(ConfigError):
            fit_xy(crystal_space, [], [], KernelConfig())


@given(
    st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=300),
    st.floats(-1e6, 1e6),
)
def test_standardize_matches_np_mean_and_std(values, shift):
    targets = np.asarray(values) + shift
    std = float(np.std(targets))
    expected = (float(np.mean(targets)), std if std != 0.0 else 1.0)
    assert surrogate._standardize(targets) == expected


def spd_matrix(rng, n):
    """A random symmetric positive definite n x n matrix, C-ordered."""
    x = rng.normal(size=(n, n + 2))
    return x @ x.T + 1e-3 * np.eye(n)


class TestOpenBLASBinding:
    """``surrogate.dpotrf``/``dtrsm`` against SciPy's f2py wrappers of the
    same routines: equal bits, order and ``info``."""

    @pytest.fixture(autouse=True)
    def _f2py(self):
        from scipy.linalg.blas import dtrsm
        from scipy.linalg.lapack import dpotrf

        self.potrf, self.trsm = dpotrf, dtrsm

    def test_the_bundled_library_is_bound_where_there_is_one(self):
        if not surrogate._bundled_openblas("scipy"):
            pytest.skip("SciPy does not bundle OpenBLAS here")
        assert surrogate.dpotrf is not self.potrf
        assert surrogate.dtrsm is not self.trsm

    @pytest.mark.parametrize("n", range(65))
    def test_potrf_equals_f2py(self, n):
        a = spd_matrix(np.random.default_rng(n), n)
        want, want_info = self.potrf(a, lower=1, clean=0)
        got, info = surrogate.dpotrf(a, lower=1, clean=0)
        assert info == want_info == 0
        assert got.flags.f_contiguous and _bits(got) == _bits(want)
        assert _bits(a) == _bits(spd_matrix(np.random.default_rng(n), n))  # a copy

    @pytest.mark.parametrize("lower", [0, 1])
    @pytest.mark.parametrize("clean", [0, 1])
    def test_potrf_options_equal_f2py(self, lower, clean):
        a = spd_matrix(np.random.default_rng(3), 9)
        want, _ = self.potrf(a, lower=lower, clean=clean)
        got, _ = surrogate.dpotrf(a, lower=lower, clean=clean)
        assert _bits(got) == _bits(want)

    def test_not_positive_definite_gives_the_same_info(self):
        rng = np.random.default_rng(5)
        for n in range(2, 20):
            a = spd_matrix(rng, n)
            a[n // 2, n // 2] = -1.0
            want, want_info = self.potrf(a, lower=1, clean=0)
            got, info = surrogate.dpotrf(a, lower=1, clean=0)
            assert info == want_info > 0
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n", range(65))
    def test_trailing_solve_equals_f2py(self, n):
        # KernelRows._trailing: b L^-T in place on the transposed b.
        rng = np.random.default_rng(100 + n)
        lower, _ = self.potrf(spd_matrix(rng, n), lower=1, clean=0)
        b = rng.normal(size=(n, 19))
        want = self.trsm(1.0, lower, b.copy().T, side=1, lower=1, trans_a=1,
                         overwrite_b=1).T
        got = surrogate.dtrsm(1.0, lower, b.T, side=1, lower=1, trans_a=1,
                              overwrite_b=1).T
        assert _bits(got) == _bits(want)
        if n:
            assert np.shares_memory(got, b)

    @pytest.mark.parametrize("n", range(65))
    def test_left_solve_on_a_c_ordered_slice_equals_f2py(self, n):
        # GPModel.predict_coords: L^-1 k* with L a slice of a larger buffer.
        rng = np.random.default_rng(200 + n)
        buffer = np.zeros((n + 3, n + 3))
        buffer[:n, :n] = self.potrf(spd_matrix(rng, n), lower=1, clean=0)[0]
        k_star = rng.normal(size=(n, 7))
        want = self.trsm(1.0, buffer[:n, :n], k_star, lower=1)
        got = surrogate.dtrsm(1.0, buffer[:n, :n], k_star, lower=1)
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert _bits(got) == _bits(want)
        assert not np.shares_memory(got, k_star)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("lower", [0, 1])
    @pytest.mark.parametrize("trans_a", [0, 1])
    @pytest.mark.parametrize("diag", [0, 1])
    def test_trsm_options_equal_f2py(self, side, lower, trans_a, diag):
        rng = np.random.default_rng(7)
        a = spd_matrix(rng, 6)
        b = rng.normal(size=(4, 6) if side else (6, 4))
        want = self.trsm(0.5, a, b, side=side, lower=lower, trans_a=trans_a, diag=diag)
        got = surrogate.dtrsm(0.5, a, b, side=side, lower=lower, trans_a=trans_a,
                              diag=diag)
        assert _bits(got) == _bits(want)

    def test_shapes_that_do_not_match_raise(self):
        with pytest.raises(ValueError, match="square"):
            surrogate.dpotrf(np.ones((2, 3)), lower=1, clean=0)
        with pytest.raises(ValueError, match="triangular"):
            surrogate.dtrsm(1.0, np.eye(3), np.ones((2, 4)), lower=1)

    def test_without_the_symbols_scipy_linalg_is_used(self):
        assert surrogate._linalg_routines([]) == (self.potrf, self.trsm)
        # NumPy's OpenBLAS exports its symbols under another suffix.
        numpy_copies = surrogate._bundled_openblas("numpy")
        assert surrogate._linalg_routines(numpy_copies) == (self.potrf, self.trsm)

    def test_the_fallback_gives_the_same_fits(self, monkeypatch):
        rng = np.random.default_rng(9)
        space = random_space(rng, 3)
        trials = [int(i) for i in rng.integers(0, space.n_sets, size=40)]
        values = {"a": list(rng.normal(size=40)), "b": list(rng.normal(size=40))}
        query = rng.uniform(size=(5, 3))

        def run():
            rows = KernelRows(space, KernelConfig(), tuple(values))
            out = []
            for t in range(40):
                models = fit_many_xy(space, trials[t:t + 1],
                                     {k: v[t:t + 1] for k, v in values.items()},
                                     KernelConfig(), rows=rows)
                m = len(rows)
                # The buffers' rows past m, and L's upper triangle, are unset.
                out.append([rows._order, rows._totals, rows._rows[:m], rows._vw[:m],
                            np.tril(rows._lower[:m, :m]), rows._var,
                            *models["b"].predict_coords(query)])
            return [_bits(a) for arrays in out for a in arrays]

        bound = run()
        monkeypatch.setattr(surrogate, "dpotrf", self.potrf)
        monkeypatch.setattr(surrogate, "dtrsm", self.trsm)
        assert run() == bound
