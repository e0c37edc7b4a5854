"""Tests of the benchmark's own arithmetic and instrumentation.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from spans import (Patcher, Target, Tracer, TrialClock,  # noqa: E402
                   covered, min_over_passes, percentile, top_percentile)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(11.0, 12.0), (5.0, 5.0)]) == 0.0
    assert covered(0.0, 10.0, [(6.0, 7.0), (1.0, 2.0), (1.5, 6.5)]) == pytest.approx(6.0)


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        inner(2.0)
        clock.now += 0.5
        inner(3.0)

    inner = tracer.wrap(leaf, "inner")
    outer = tracer.wrap(middle, "outer")
    outer()
    by_name = {}
    for s, own in zip(tracer.spans, tracer.self_times()):
        by_name.setdefault(s.name, []).append((s, own))
    (o, o_self), = by_name["outer"]
    assert o.end - o.start == pytest.approx(6.5)
    assert o_self == pytest.approx(1.5)
    assert [own for _, own in by_name["inner"]] == pytest.approx([2.0, 3.0])
    assert all(s.parent == tracer.spans.index(o) for s, _ in by_name["inner"])
    assert o.parent == -1


def test_span_recorded_when_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert [s.name for s in tracer.spans] == ["boom"]


def test_top_percentile_keeps_ten_samples_beyond():
    assert top_percentile(19) is None
    assert top_percentile(20) == 50.0
    assert top_percentile(99) == 50.0
    assert top_percentile(100) == 90.0
    assert top_percentile(999) == 90.0
    assert top_percentile(1000) == 99.0
    assert top_percentile(9999) == 99.0
    assert top_percentile(10000) == 99.9
    assert top_percentile(100000) == 99.99


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 90.0) == pytest.approx(4.6)
    assert percentile(values, 100.0) == 5.0
    assert percentile([], 50.0) == 0.0


def test_min_over_passes_takes_elementwise_minimum():
    values = [3.0, 1.0, 5.0,  2.0, 4.0, 9.0,  2.5, 0.5, 6.0]
    assert min_over_passes(values, [3, 6, 9]) == [2.0, 0.5, 5.0]
    assert min_over_passes(values[:3], [3]) == [3.0, 1.0, 5.0]
    with pytest.raises(ValueError):
        min_over_passes(values[:8], [3, 6, 8])


class StubExecutor:
    """Executor whose trials take a fixed time on the fake clock."""

    def __init__(self, clock, trial_s):
        self.clock = clock
        self.trial_s = trial_s

    def run_trial(self, set_index, trial_index):
        self.clock.now += self.trial_s
        return (set_index, trial_index)


def test_decision_gap_measured_between_calls_on_one_executor():
    clock = FakeClock()
    released = []
    tc = TrialClock(clock, on_release=released.append)
    run = tc.wrap(StubExecutor.run_trial)
    a, b = StubExecutor(clock, 0.5), StubExecutor(clock, 0.25)
    for engine_time in (0.0, 0.125, 0.375):
        clock.now += engine_time
        run(a, 0, 1)
    clock.now += 7.0  # between iterations: not a decision gap
    run(b, 0, 1)
    clock.now += 0.0625
    run(b, 0, 2)
    tc.finish()
    assert tc.gaps == pytest.approx([0.125, 0.375, 0.0625])
    assert tc.trials == 5
    assert released == [a, b]


def test_decision_gaps_on_a_real_engine():
    import numpy as np
    from apexopt import (ConstraintSpec, Engine, EngineConfig, MetricSpec,
                         ParameterDef, Requirement, TerminationCriteria,
                         enumerate_space)
    from apexopt.executor import SyntheticExecutor, SyntheticSpec

    space = enumerate_space([ParameterDef("a", (0, 1, 2, 3)),
                             ParameterDef("b", (0, 1, 2, 3))])
    spec = SyntheticSpec(space, {"cost": np.linspace(100, 200, 16),
                                 "q": np.repeat([10.0, 90.0], 8)},
                         {"cost": 5.0, "q": 3.0})
    cfg = EngineConfig(space=space,
                       requirement=Requirement(MetricSpec("cost", "minimize"),
                                               (ConstraintSpec("q", ">=", 50.0),)),
                       termination=TerminationCriteria(max_trials=12), seed=3)
    tc = TrialClock()
    patcher = Patcher()
    patcher.install([Target("apexopt.executor:SyntheticExecutor.run_trial", "t")],
                    lambda fn, t: tc.wrap(fn))
    try:
        result = Engine(cfg, SyntheticExecutor(spec, 3)).run()
    finally:
        patcher.restore()
    assert result.n_trials == 12 and tc.trials == 12
    assert len(tc.gaps) == 11 and all(g > 0 for g in tc.gaps)
    assert "timed_run_trial" not in repr(SyntheticExecutor.run_trial)


def test_patcher_replaces_imported_names_and_restores():
    from apexopt import acquisition, surrogate

    original = surrogate.predict
    tracer = Tracer()
    patcher = Patcher()
    patcher.install([Target("apexopt.surrogate:predict", "surrogate.predict1")],
                    lambda fn, t: tracer.wrap(fn, t.span))
    try:
        assert surrogate.predict is not original
        assert acquisition.predict is surrogate.predict
    finally:
        patcher.restore()
    assert surrogate.predict is original and acquisition.predict is original
