"""Parameter space, requirement canonicalization, and distance tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apexopt.domain import (
    ConfigError,
    ConstraintSpec,
    MetricSpec,
    ParameterDef,
    ParameterSpace,
    Requirement,
    TerminationCriteria,
    UnsatisfiableTerminationError,
    canonicalize,
    enumerate_space,
    max_distance,
    normalized_distance,
)


class TestEnumerateSpace:
    def test_crystal_grid_has_16_sets(self, crystal_space):
        assert crystal_space.n_sets == 16

    def test_rpl_grid_has_36_sets(self):
        space = enumerate_space(
            [
                ParameterDef("max_link_metric", (16.0, 32.0, 64.0)),
                ParameterDef(
                    "DIO_interval", (2.0**4, 2.0**8, 2.0**12, 2.0**16),
                    unit="ms", scale="log2",
                ),
                ParameterDef("Rank_threshold", (4.0, 8.0, 12.0)),
            ]
        )
        assert space.n_sets == 36

    def test_singleton_space(self):
        space = enumerate_space([ParameterDef("p", (3.0,))])
        assert space.n_sets == 1
        assert space.set_at(0).values == (3.0,)
        assert space.index_of(space.set_at(0)) == 0

    def test_empty_defs_rejected(self):
        with pytest.raises(ConfigError):
            enumerate_space([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            enumerate_space(
                [ParameterDef("p", (1.0, 2.0)), ParameterDef("p", (3.0, 4.0))]
            )

    def test_lexicographic_index_order(self, crystal_space):
        assert crystal_space.set_at(0).values == (-5.0, 1.0)
        assert crystal_space.set_at(1).values == (-5.0, 2.0)
        assert crystal_space.set_at(4).values == (-3.0, 1.0)
        assert crystal_space.set_at(15).values == (0.0, 4.0)

    @given(st.integers(min_value=0, max_value=15))
    def test_index_round_trip(self, index):
        space = ParameterSpace(
            [
                ParameterDef("tx_power", (-5.0, -3.0, -1.0, 0.0)),
                ParameterDef("n_tx", (1.0, 2.0, 3.0, 4.0)),
            ]
        )
        assert space.index_of(space.set_at(index)) == index

    def test_normalization_bounds(self, crystal_space):
        coords = crystal_space.normalized_all()
        assert coords.shape == (16, 2)
        assert np.all(coords >= 0.0) and np.all(coords <= 1.0)
        assert coords[:, 0].min() == 0.0 and coords[:, 0].max() == 1.0

    def test_log2_normalization_spreads_exponential_values(self):
        d = ParameterDef("DIO_interval", (2.0**4, 2.0**8, 2.0**12, 2.0**16),
                         scale="log2")
        norms = [d.normalize(v) for v in d.values]
        assert norms == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])
        # A linear scale would collapse the first three values near 0.
        lin = ParameterDef("x", (2.0**4, 2.0**8, 2.0**12, 2.0**16))
        assert lin.normalize(2.0**12) < 0.07


class TestParameterDef:
    def test_values_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            ParameterDef("p", (1.0, 1.0, 2.0))

    def test_values_must_be_finite(self):
        with pytest.raises(ConfigError, match="finite"):
            ParameterDef("p", (1.0, math.inf))

    def test_values_must_be_numbers(self):
        # A bool or a numeric string is not a number, and an int past the
        # float range is not finite.
        for values in (("a", "b", "c", "d"), ("0", "1", "2", "3"), (True, 2, 3, 4),
                       (1, 10**400)):
            with pytest.raises(ConfigError, match="'p': values must be numbers"):
                ParameterDef("p", values)

    def test_log2_needs_positive_values(self):
        with pytest.raises(ConfigError, match="positive"):
            ParameterDef("p", (-1.0, 2.0), scale="log2")


class TestCanonicalize:
    def test_maximize_goal_becomes_sign_flip(self):
        req = Requirement(goal=MetricSpec("prr", "maximize"))
        canon = canonicalize(req)
        assert canon.goal_sign == -1.0
        assert canon.goal_value({"prr": 80.0}) == -80.0

    def test_ge_constraint_becomes_le(self):
        req = Requirement(
            goal=MetricSpec("energy", "minimize"),
            constraints=(ConstraintSpec("prr", ">=", 65.0, 0.5),),
        )
        c = canonicalize(req).constraints[0]
        assert c.sign == -1.0 and c.bound == -65.0
        assert c.satisfied(70.0) and not c.satisfied(60.0)

    def test_le_constraint_unchanged(self):
        req = Requirement(
            goal=MetricSpec("prr", "maximize"),
            constraints=(ConstraintSpec("energy", "<=", 210.0, 0.5),),
        )
        c = canonicalize(req).constraints[0]
        assert c.sign == 1.0 and c.bound == 210.0
        assert c.satisfied(209.9) and not c.satisfied(210.1)

    def test_canonicalize_is_idempotent(self):
        req = Requirement(
            goal=MetricSpec("prr", "maximize"),
            constraints=(ConstraintSpec("prr", ">=", 65.0, 0.25),),
        )
        once = canonicalize(req)
        assert canonicalize(once) is once

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=16,
        )
    )
    def test_argmin_of_canonical_equals_argmax_of_original(self, values):
        canon = canonicalize(Requirement(goal=MetricSpec("prr", "maximize")))
        canonical = [canon.goal_value({"prr": v}) for v in values]
        assert int(np.argmin(canonical)) == int(np.argmax(values))


class TestNormalizedDistance:
    def test_identity(self, crystal_space):
        assert normalized_distance(crystal_space, 5, 5) == 0.0

    def test_opposite_corners(self, crystal_space):
        assert normalized_distance(crystal_space, 0, 15) == pytest.approx(
            math.sqrt(2.0)
        )
        assert max_distance(crystal_space) == pytest.approx(math.sqrt(2.0))

    def test_single_dimension_step(self, crystal_space):
        # tx_power -5 -> -3 over a range of 5, n_tx equal: |2/5| = 0.4.
        a = crystal_space.index_of((-5.0, 2.0))
        b = crystal_space.index_of((-3.0, 2.0))
        assert normalized_distance(crystal_space, a, b) == pytest.approx(0.4)


class TestTermination:
    def test_at_least_one_criterion(self):
        with pytest.raises(ConfigError):
            TerminationCriteria()

    def test_alpha_target_above_100_unsatisfiable(self):
        with pytest.raises(UnsatisfiableTerminationError):
            TerminationCriteria(alpha_target=101.0)

    def test_beta_target_of_one_needs_max_trials(self):
        with pytest.raises(UnsatisfiableTerminationError):
            TerminationCriteria(beta_target=1.0)
        TerminationCriteria(beta_target=1.0, max_trials=10)  # allowed


def test_goal_metric_overlapping_constraint_logs_warning(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="apexopt.domain"):
        Requirement(
            goal=MetricSpec("prr", "maximize"),
            constraints=(ConstraintSpec("prr", ">=", 65.0, 0.5),),
        )
    assert any("constraint metric" in r.message for r in caplog.records)


@given(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        min_size=2,
        max_size=8,
        unique=True,
    )
)
def test_normalized_coordinates_stay_in_unit_interval(values):
    d = ParameterDef("p", tuple(sorted(values)))
    coords = [d.normalize(v) for v in d.values]
    assert all(0.0 <= c <= 1.0 for c in coords)
    assert coords[0] == 0.0 and coords[-1] == 1.0
    assert all(a <= b for a, b in zip(coords, coords[1:]))
