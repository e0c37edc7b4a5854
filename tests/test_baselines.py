"""Baseline strategy tests: greedy rules and tabular Q-learning."""

import numpy as np
import pytest

from apexopt.baselines import (
    GerSchedule,
    QTable,
    RlAnyPolicy,
    RlStepPolicy,
    SurrogateLite,
    gel_select,
    ger_select,
    guc_select,
    neighbor_indices,
    quadratic_features,
    uncertainty_scores,
)
from apexopt.engine import EngineConfig
from tests.conftest import make_line_space

RL_RATES = {"learning_rate": EngineConfig.rl_learning_rate,
            "discount": EngineConfig.rl_discount}


class TestSurrogateLite:
    def test_unfitted_without_data(self, crystal_space):
        g = SurrogateLite.fit(crystal_space, {})
        assert not g.fitted

    def test_quadratic_fit_matches_independent_lstsq(self, crystal_space):
        medians = {0: 182.0, 3: 195.0, 5: 188.0, 9: 209.5, 12: 191.0, 15: 200.0}
        g = SurrogateLite.fit(crystal_space, medians)
        idx = sorted(medians)
        coords = crystal_space.normalized_all()[idx]
        z1, z2 = coords[:, 0], coords[:, 1]
        design = np.column_stack(
            [np.ones(len(idx)), z1, z2, z1 * z1, z1 * z2, z2 * z2]
        )
        coeffs, *_ = np.linalg.lstsq(design, np.array([medians[i] for i in idx]),
                                     rcond=None)
        all_coords = crystal_space.normalized_all()
        oracle = (
            coeffs[0]
            + coeffs[1] * all_coords[:, 0]
            + coeffs[2] * all_coords[:, 1]
            + coeffs[3] * all_coords[:, 0] ** 2
            + coeffs[4] * all_coords[:, 0] * all_coords[:, 1]
            + coeffs[5] * all_coords[:, 1] ** 2
        )
        np.testing.assert_allclose(g.predict(range(16)), oracle, atol=1e-8)

    def test_feature_count(self):
        feats = quadratic_features(np.zeros((1, 3)))
        assert feats.shape == (1, 1 + 3 + 6)


class TestGel:
    def test_singleton(self, crystal_space):
        g = SurrogateLite.fit(crystal_space, {3: 5.0})
        rng = np.random.default_rng(0)
        assert gel_select(g, [7]) == 7

    def test_empty_pool_returns_none(self, crystal_space):
        g = SurrogateLite.fit(crystal_space, {3: 5.0})
        assert gel_select(g, []) is None

    def test_argmin_matches_exhaustive_scan(self, crystal_space):
        medians = {0: 9.0, 2: 4.0, 5: 6.5, 9: 3.2, 12: 8.8, 15: 5.1}
        g = SurrogateLite.fit(crystal_space, medians)
        pool = list(range(16))
        chosen = gel_select(g, pool)
        values = g.predict(pool)
        assert chosen == pool[int(np.argmin(values))]


class TestGer:
    def test_first_epoch_covers_every_set_once(self, crystal_space):
        picks = [ger_select(n, crystal_space, seed=7) for n in range(1, 17)]
        assert sorted(picks) == list(range(16))

    def test_second_epoch_is_a_fresh_full_pass(self, crystal_space):
        second = [ger_select(n, crystal_space, seed=7) for n in range(17, 33)]
        assert sorted(second) == list(range(16))
        first = [ger_select(n, crystal_space, seed=7) for n in range(1, 17)]
        assert first != second  # new permutation per epoch (w.h.p.)

    def test_fixed_seed_reproducible(self, crystal_space):
        a = [ger_select(n, crystal_space, seed=3) for n in range(1, 33)]
        b = [ger_select(n, crystal_space, seed=3) for n in range(1, 33)]
        assert a == b

    def test_schedule_skips_excluded(self, crystal_space):
        schedule = GerSchedule(crystal_space, seed=3)
        picks = [schedule.select(frozenset({0, 1, 2, 3})) for _ in range(12)]
        assert sorted(picks) == list(range(4, 16))

    def test_epoch_window_coverage_property(self):
        space = make_line_space(5)
        for seed in range(5):
            picks = [ger_select(n, space, seed) for n in range(1, 21)]
            for epoch in range(4):
                window = picks[epoch * 5 : (epoch + 1) * 5]
                assert sorted(window) == list(range(5))


class TestGuc:
    def test_zeta_oracle_on_line(self):
        space = make_line_space(3)
        counts = {0: 1}
        zeta = uncertainty_scores(space, counts, [0, 1, 2])
        np.testing.assert_array_equal(zeta, [-2.0, -1.0, 0.0])
        g = SurrogateLite.fit(space, {0: 5.0})
        rng = np.random.default_rng(0)
        assert guc_select(counts, g, [0, 1, 2], space, rng) == 2

    def test_cold_start_is_random_but_seeded(self, crystal_space):
        g = SurrogateLite.fit(crystal_space, {})
        a = guc_select({}, g, range(16), crystal_space, np.random.default_rng(5))
        b = guc_select({}, g, range(16), crystal_space, np.random.default_rng(5))
        assert a == b

    def test_empty_pool_returns_none(self, crystal_space):
        g = SurrogateLite.fit(crystal_space, {0: 1.0, 5: 2.0})
        rng = np.random.default_rng(0)
        assert guc_select({0: 1, 5: 1}, g, [], crystal_space, rng) is None

    def test_corner_sets_have_fewer_neighbors(self, crystal_space):
        assert len(neighbor_indices(crystal_space, 0)) == 2
        assert len(neighbor_indices(crystal_space, 5)) == 4
        # A corner result therefore penalizes fewer sets.
        corner = uncertainty_scores(crystal_space, {0: 1}, range(16))
        center = uncertainty_scores(crystal_space, {5: 1}, range(16))
        assert np.sum(corner < 0) < np.sum(center < 0)

    def test_zeta_never_positive_and_weakly_decreasing(self, crystal_space):
        rng = np.random.default_rng(8)
        counts: dict[int, int] = {}
        prev = uncertainty_scores(crystal_space, counts, range(16))
        for _ in range(30):
            idx = int(rng.integers(16))
            counts[idx] = counts.get(idx, 0) + 1
            now = uncertainty_scores(crystal_space, counts, range(16))
            assert np.all(now <= 0.0)
            assert np.all(now <= prev + 1e-12)
            prev = now


def run_chain(policy, steps, reward_state=2, start=0):
    """Drive a policy on a 1-D chain: landing on `reward_state` pays 1."""
    policy.update(0.0, start)  # set the initial state, no pending action
    first_hit = None
    for t in range(1, steps + 1):
        target = policy.propose(policy.state)
        reward = 1.0 if target == reward_state else 0.0
        policy.update(reward, target)
        if first_hit is None and target == reward_state:
            first_hit = t
    return first_hit


class TestRlStep:
    def test_pure_greedy_takes_dominant_action(self):
        space = make_line_space(3)
        policy = RlStepPolicy(space, np.random.default_rng(0), epsilon=0.0, **RL_RATES)
        policy.update(0.0, 1)
        policy.qtable.values[1] = {1: 0.0, 0: 0.1, 2: 5.0}
        for _ in range(5):
            assert policy.propose(1) == 2
            policy._pending = None

    def test_corner_state_masks_illegal_moves(self):
        space = make_line_space(3)
        policy = RlStepPolicy(space, np.random.default_rng(0),
                              epsilon=EngineConfig.rl_epsilon, **RL_RATES)
        actions = policy.legal_actions(0, frozenset())
        assert -1 not in actions
        assert set(actions) == {0, 1}
        actions_top = policy.legal_actions(2, frozenset())
        assert 3 not in actions_top

    def test_exhausted_targets_are_never_proposed(self):
        space = make_line_space(3)
        policy = RlStepPolicy(space, np.random.default_rng(0), epsilon=1.0, **RL_RATES)
        policy.update(0.0, 1)
        for _ in range(20):
            assert policy.propose(1, exclude=frozenset({0})) != 0
            policy._pending = None

    def test_chain_converges_to_rewarding_state(self):
        space = make_line_space(3)
        policy = RlStepPolicy(space, np.random.default_rng(123), epsilon=0.3,
                              **RL_RATES)
        run_chain(policy, steps=200)
        # Greedy policy must now walk 0 -> 1 -> 2 and then stay.
        policy.qtable.epsilon = 0.0
        state = 0
        visited = [state]
        for _ in range(3):
            state = policy.propose(state)
            policy._pending = None
            visited.append(state)
        assert 2 in visited
        # Against the value-iteration oracle the greedy first move from 1
        # is "step up" to set 2 (the only action leading to the reward).
        q1 = policy.qtable.values[1]
        assert max(q1, key=q1.get) == 2

    def test_update_fixed_point(self):
        table = QTable(learning_rate=0.1, discount=0.9, epsilon=0.0)
        table.values[0] = {("stay",): 1.0}
        table.values[1] = {("stay",): 2.0}
        # r + gamma * max Q(s') == Q(s,a) exactly: no change.
        table.update(0, ("stay",), 1.0 - 0.9 * 2.0, 1, [("stay",)])
        assert table.get(0, ("stay",)) == pytest.approx(1.0)


class TestRlAny:
    def test_full_exploration_is_uniform_over_sets(self):
        space = make_line_space(4)
        policy = RlAnyPolicy(space, np.random.default_rng(0), epsilon=1.0, **RL_RATES)
        policy.update(0.0, 0)
        picks = []
        for _ in range(400):
            picks.append(policy.propose(policy.state))
            policy._pending = None
        counts = np.bincount(picks, minlength=4)
        assert np.all(counts > 50)

    def test_greedy_jumps_to_seeded_entry(self):
        space = make_line_space(4)
        policy = RlAnyPolicy(space, np.random.default_rng(0), epsilon=0.0, **RL_RATES)
        policy.update(0.0, 0)
        policy.qtable.values[0] = {3: 4.0}
        assert policy.propose(0) == 3

    def test_reaches_reward_no_later_than_rl_step(self):
        space = make_line_space(3)
        step_policy = RlStepPolicy(space, np.random.default_rng(77), epsilon=1.0,
                                   **RL_RATES)
        any_policy = RlAnyPolicy(space, np.random.default_rng(77), epsilon=1.0,
                                 **RL_RATES)
        step_hit = run_chain(step_policy, steps=100)
        any_hit = run_chain(any_policy, steps=100)
        assert any_hit is not None and step_hit is not None
        assert any_hit <= step_hit

    def test_table_grows_only_with_visits(self):
        space = make_line_space(4)
        policy = RlAnyPolicy(space, np.random.default_rng(1), epsilon=0.5, **RL_RATES)
        policy.update(0.0, 0)
        for _ in range(10):
            target = policy.propose(policy.state)
            policy.update(0.0, target)
        visited_pairs = sum(len(v) for v in policy.qtable.values.values())
        assert visited_pairs <= 10
