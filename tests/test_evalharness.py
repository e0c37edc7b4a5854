"""Campaign harness: ground truth, optimality curves, EM metrics, RMSD."""

import csv
import dataclasses
from importlib import resources

import numpy as np
import pytest
import yaml

from apexopt import evalharness
from apexopt.cli import parse_config

from apexopt.domain import (
    ConfigError,
    ConstraintSpec,
    MetricSpec,
    ParameterDef,
    ParameterSpace,
    Requirement,
)
from apexopt.evalharness import (
    CampaignSpec,
    constraint_discovery_curve,
    em_metrics,
    ground_truth_optimal,
    ground_truth_satisfying,
    rmsd_alpha,
    run_campaign,
)
from apexopt.engine import AnalysisState, EngineConfig
from apexopt.executor import RemoteConfig, SyntheticSpec
from tests.conftest import blas_threads, fail_fit_on_call, make_dataset


def _wide_source() -> SyntheticSpec:
    """The 8x8x4 (256-set) quadratic landscape of the wide benchmark."""
    space = ParameterSpace([ParameterDef("x", tuple(float(i) for i in range(8))),
                            ParameterDef("y", tuple(float(i) for i in range(8))),
                            ParameterDef("w", (0.0, 1.0, 2.0, 3.0))])
    z = space.normalized_all()
    cost = (100 + 60 * (z[:, 0] - 0.6) ** 2 + 40 * (z[:, 1] - 0.3) ** 2
            + 20 * (z[:, 2] - 0.4) ** 2)
    quality = 100 * z[:, 0] + 10 * z[:, 2]
    return SyntheticSpec(space, {"cost": cost, "quality": quality},
                         {"cost": 2.0, "quality": 4.0})


def _csv_curve_cells(result, tmp_path) -> list[list[str]]:
    """The curve cells of each row of the campaign's CSV, after checking
    the trial numbers and that every heatmap cell is an integer count."""
    path = tmp_path / "campaign_trials.csv"
    evalharness.write_campaign_csv(result, path)
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[:6] == ["n", "optimality", "mean_alpha", "mean_alpha_b1",
                          "mean_alpha_b2", "constraint_discovery"]
    assert [row[0] for row in rows] == [str(k) for k in range(1, result.budget + 1)]
    assert all(int(cell) >= 0 for row in rows for cell in row[6:])
    return [row[1:6] for row in rows]


def _planted(space, records_per_set=6):
    # Feasible rows i >= 1; unique optimum at index 4 (energy 100).
    energy = [float(200 - 20 * i + 5 * j) if i == 0 else float(100 + 15 * (i - 1) + 5 * j)
              for i in range(4) for j in range(4)]
    prr = [55.0 if i == 0 else 80.0 for i in range(4) for j in range(4)]
    return make_dataset(space, {"energy": energy, "prr": prr},
                        records_per_set=records_per_set)


@pytest.fixture
def planted_dataset(crystal_space):
    return _planted(crystal_space)


class TestGroundTruth:
    def test_planted_unique_optimum(self, planted_dataset, energy_prr_requirement):
        assert ground_truth_optimal(planted_dataset, energy_prr_requirement) == 4

    def test_all_identical_medians_tie_to_lowest_index(self, crystal_space,
                                                       energy_prr_requirement):
        ds = make_dataset(crystal_space, {"energy": [5.0] * 16, "prr": [90.0] * 16})
        assert ground_truth_optimal(ds, energy_prr_requirement) == 0

    def test_matches_exhaustive_median_scan(self, bundled_dataset,
                                            energy_prr_requirement):
        chosen = ground_truth_optimal(bundled_dataset, energy_prr_requirement)
        best, best_val = None, float("inf")
        for idx in range(16):
            prr_median = np.median(bundled_dataset.values(idx, "prr"))
            if prr_median < 65.0:
                continue
            energy_median = np.median(bundled_dataset.values(idx, "energy"))
            if energy_median < best_val:
                best, best_val = idx, energy_median
        assert chosen == best

    def test_no_satisfying_set_returns_none(self, crystal_space,
                                            energy_prr_requirement):
        ds = make_dataset(crystal_space, {"energy": [5.0] * 16, "prr": [10.0] * 16})
        assert ground_truth_optimal(ds, energy_prr_requirement) is None
        assert ground_truth_satisfying(ds, energy_prr_requirement) == ()

    def test_maximize_goal(self, crystal_space):
        req = Requirement(goal=MetricSpec("prr", "maximize"),
                          constraints=(ConstraintSpec("energy", "<=", 210.0, 0.5),))
        prr = [float(i) for i in range(16)]
        energy = [200.0] * 15 + [250.0]
        ds = make_dataset(crystal_space, {"energy": energy, "prr": prr})
        # Set 15 has the best PRR but violates the energy bound.
        assert ground_truth_optimal(ds, req) == 14


class TestEmMetrics:
    def test_crossing_at_20(self):
        curve = np.concatenate([np.full(19, 50.0), np.full(80, 99.5)])
        em1, em2, em3 = em_metrics(curve, n_sets=16)
        assert em1 == 20
        assert em2 == 50.0
        assert em3 == 99.5

    def test_constant_100(self):
        curve = np.full(40, 100.0)
        em1, em2, em3 = em_metrics(curve, n_sets=16)
        assert (em1, em2, em3) == (1, 100.0, 100.0)

    def test_never_reaching_99(self):
        curve = np.full(40, 98.0)
        em1, em2, em3 = em_metrics(curve, n_sets=16)
        assert em1 is None
        assert em2 == 98.0 and em3 == 98.0

    def test_budget_too_small_for_em3(self):
        curve = np.full(20, 100.0)
        _, em2, em3 = em_metrics(curve, n_sets=16)
        assert em2 == 100.0 and em3 is None


class TestRmsd:
    def test_perfect_predictor(self):
        curve = np.linspace(0, 100, 30)
        assert rmsd_alpha(curve, curve) == 0.0

    def test_constant_offset(self):
        actual = np.linspace(0, 90, 30)
        assert rmsd_alpha(actual + 10.0, actual) == pytest.approx(10.0)

    def test_hand_computed_three_trials(self):
        alpha = np.array([10.0, 20.0, 40.0])
        optimality = np.array([0.0, 30.0, 40.0])
        expected = np.sqrt((10.0**2 + 10.0**2 + 0.0) / 3.0)
        assert rmsd_alpha(alpha, optimality) == pytest.approx(expected)


class TestConstraintDiscovery:
    def test_satisfying_tested_at_trial_one(self):
        tested = np.array([[2, 0, 1], [2, 1, 0]])
        curve, crossing = constraint_discovery_curve(tested, satisfying=[2])
        np.testing.assert_allclose(curve, [1.0, 1.0, 1.0])
        assert crossing == 1

    def test_no_iteration_finds_a_satisfying_set(self):
        tested = np.array([[0, 1], [1, 0]])
        curve, crossing = constraint_discovery_curve(tested, satisfying=[5])
        np.testing.assert_allclose(curve, [0.0, 0.0])
        assert crossing is None

    def test_two_iteration_hand_count(self):
        tested = np.array([[0, 3, 1], [3, 0, 0]])
        curve, crossing = constraint_discovery_curve(tested, satisfying=[3])
        np.testing.assert_allclose(curve, [0.5, 1.0, 1.0])
        assert crossing == 2


class TestRunCampaign:
    def test_single_iteration_steps_between_0_and_100(self, planted_dataset,
                                                      energy_prr_requirement):
        # With one iteration the curve can only be 0 or 100, flipping at
        # the trials where the reported best enters/leaves the truth; a
        # full-budget run exhausts the dataset and must end at 100.
        spec = CampaignSpec(
            requirement=energy_prr_requirement,
            approach="apex-ei",
            source=planted_dataset,
            iterations=1,
            max_trials=96,
            base_seed=3,
        )
        result = run_campaign(spec)
        assert result.ground_truth_index == 4
        assert set(np.unique(result.optimality)) <= {0.0, 100.0}
        assert result.optimality[-1] == 100.0
        jump = int(np.flatnonzero(result.optimality == 100.0)[0])
        assert result.reported_matrix[0, jump] == 4
        if jump > 0:
            assert result.reported_matrix[0, jump - 1] != 4

    def test_identical_specs_give_identical_results(self, planted_dataset,
                                                    energy_prr_requirement):
        def build():
            return CampaignSpec(
                requirement=energy_prr_requirement,
                approach="ger",
                source=planted_dataset,
                iterations=5,
                max_trials=30,
                base_seed=0,
            )

        a = run_campaign(build())
        b = run_campaign(build())
        np.testing.assert_array_equal(a.optimality, b.optimality)
        np.testing.assert_allclose(a.mean_alpha, b.mean_alpha)
        np.testing.assert_array_equal(a.heatmap, b.heatmap)
        assert a.em1 == b.em1

    def test_parallel_jobs_match_serial(self, crystal_space, energy_prr_requirement):
        # 24 trials fit in 96 records but not in 16, so every iteration
        # completes in the first campaign and fails in the second.
        for records_per_set, failures in ((6, 0), (1, 4)):
            source = _planted(crystal_space, records_per_set)

            def build(jobs):
                return CampaignSpec(
                    requirement=energy_prr_requirement,
                    approach="ger",
                    source=source,
                    iterations=4,
                    max_trials=24,
                    base_seed=1,
                    jobs=jobs,
                )

            serial = run_campaign(build(1))
            parallel = run_campaign(build(2))
            assert serial.failures == failures
            assert serial.failed_iterations == parallel.failed_iterations
            arrays = [f.name for f in dataclasses.fields(serial)
                      if isinstance(getattr(serial, f.name), np.ndarray)]
            assert len(arrays) == 9
            for name in arrays:
                a, b = getattr(serial, name), getattr(parallel, name)
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_serial_campaign_runs_one_blas_thread(self, caller_blas_threads,
                                                  planted_dataset,
                                                  energy_prr_requirement,
                                                  monkeypatch):
        real = AnalysisState.update
        seen = []

        def spy(state, obs):
            seen.append(blas_threads())
            return real(state, obs)

        monkeypatch.setattr(AnalysisState, "update", spy)
        run_campaign(CampaignSpec(requirement=energy_prr_requirement,
                                  approach="apex-lcb", source=planted_dataset,
                                  iterations=2, max_trials=12))
        assert len(seen) == 24 and all(set(c) == {1} for c in seen)
        assert blas_threads() == caller_blas_threads

    def test_serial_matches_pool_on_a_wide_landscape(self, caller_blas_threads):
        # 192 distinct sets and 256-column predictions: large enough for
        # OpenBLAS's threaded paths, whose last bits differ from one
        # thread's. The pool workers run one thread, so must the serial
        # campaign (seen only where the machine has two or more CPUs).
        requirement = Requirement(
            goal=MetricSpec("cost", "minimize"),
            constraints=(ConstraintSpec("quality", ">=", 50.0, 0.5),),
        )
        serial, pooled = (
            run_campaign(CampaignSpec(requirement=requirement, approach="ger",
                                      source=_wide_source(), iterations=1,
                                      max_trials=192, jobs=jobs))
            for jobs in (1, 2)
        )
        np.testing.assert_array_equal(serial.mean_alpha, pooled.mean_alpha)

    def test_ger_reaches_truth_within_exhaustion_bound(self, planted_dataset,
                                                       energy_prr_requirement):
        # Noiseless records: once every set is visited, the reported best
        # is the true optimum; 96 trials exhausts the dataset.
        spec = CampaignSpec(
            requirement=energy_prr_requirement,
            approach="ger",
            source=planted_dataset,
            iterations=8,
            max_trials=96,
            base_seed=2,
        )
        result = run_campaign(spec)
        assert result.failures == 0
        assert result.optimality[-1] == 100.0
        assert result.em1 is not None and result.em1 <= 96

    def test_failed_iterations_are_counted_and_excluded(self, crystal_space,
                                                        energy_prr_requirement,
                                                        tmp_path):
        tables = {"energy": [100.0 + i for i in range(16)], "prr": [90.0] * 16}
        small = make_dataset(crystal_space, tables, records_per_set=1)
        spec = CampaignSpec(
            requirement=energy_prr_requirement,
            approach="ger",
            source=small,
            iterations=3,
            max_trials=30,  # beyond the 16 available records
            base_seed=0,
        )
        result = run_campaign(spec)
        assert result.failures == 3
        assert result.iterations == 0
        # No completed iteration: the summary metrics are undefined, not 0.
        assert (result.em1, result.em2, result.em3) == (None, None, None)
        assert result.rmsd_alpha is None
        assert result.rmsd_alpha_b1 is None and result.rmsd_alpha_b2 is None
        summary = evalharness.campaign_summary(result, spec)
        assert summary["final_optimality"] is None
        assert summary["em2"] is None and summary["rmsd_alpha"] is None
        assert result.reported_matrix.shape == (0, 30)
        assert result.reported_matrix.dtype.kind == "i"
        # Nor are the curves: every curve cell of the CSV is empty.
        assert _csv_curve_cells(result, tmp_path) == [[""] * 5] * 30

    def test_constraint_finding_reports_no_optimality(self, bundled_dataset,
                                                      tmp_path):
        # No set's median PRR reaches 99.5 in the bundled dataset, so there
        # is no ground-truth optimum and optimality is undefined.
        requirement = Requirement(
            goal=MetricSpec("energy", "minimize", "J"),
            constraints=(ConstraintSpec("prr", ">=", 99.5, 0.5),),
        )
        spec = CampaignSpec(
            requirement=requirement,
            approach="apex-lcb",
            source=bundled_dataset,
            iterations=2,
            max_trials=40,
            base_seed=0,
        )
        result = run_campaign(spec)
        assert result.iterations == 2 and result.failures == 0
        assert result.ground_truth_index is None
        assert (result.em1, result.em2, result.em3) == (None, None, None)
        assert result.rmsd_alpha is None
        summary = evalharness.campaign_summary(result, spec)
        assert summary["mode"] == "constraint-finding"
        assert summary["final_optimality"] is None
        assert summary["em2"] is None and summary["em3"] is None
        # The CSV leaves optimality empty and keeps the measured curves.
        cells = _csv_curve_cells(result, tmp_path)
        assert all(row[0] == "" and all(row[1:]) for row in cells)

    def test_heatmap_counts_bounded_by_iterations(self, planted_dataset,
                                                  energy_prr_requirement):
        spec = CampaignSpec(
            requirement=energy_prr_requirement,
            approach="apex-lcb",
            source=planted_dataset,
            iterations=3,
            max_trials=20,
            base_seed=5,
            bins=10,
        )
        result = run_campaign(spec)
        assert result.heatmap.shape == (20, 10)
        assert result.heatmap.sum(axis=1).max() <= 3

    def test_optimality_recomputable_from_reported_matrix(self, planted_dataset,
                                                          energy_prr_requirement):
        spec = CampaignSpec(
            requirement=energy_prr_requirement,
            approach="apex-ei",
            source=planted_dataset,
            iterations=4,
            max_trials=30,
            base_seed=7,
        )
        result = run_campaign(spec)
        recomputed = 100.0 * np.mean(
            result.reported_matrix == result.ground_truth_index, axis=0
        )
        np.testing.assert_allclose(result.optimality, recomputed)

    def test_synthetic_source(self, crystal_space, energy_prr_requirement):
        energy = np.array([100.0 + i for i in range(16)])
        prr = np.array([90.0] * 16)
        spec = CampaignSpec(
            requirement=energy_prr_requirement,
            approach="apex-ei",
            source=SyntheticSpec(crystal_space, {"energy": energy, "prr": prr},
                                 {"energy": 1.0}),
            iterations=2,
            max_trials=20,
            base_seed=0,
        )
        result = run_campaign(spec)
        assert result.ground_truth_index == 0
        assert result.budget == 20

    def test_spec_requires_exactly_one_source(self, energy_prr_requirement,
                                              planted_dataset):
        for source in (None, RemoteConfig(endpoint="http://localhost:1")):
            with pytest.raises(ConfigError, match="campaign source"):
                CampaignSpec(requirement=energy_prr_requirement, approach="ger",
                             source=source, iterations=1)


    def test_fit_error_counts_as_one_failed_iteration(self, planted_dataset,
                                                      energy_prr_requirement,
                                                      monkeypatch):
        spec = CampaignSpec(requirement=energy_prr_requirement, approach="apex-lcb",
                            source=planted_dataset, iterations=3, max_trials=20,
                            base_seed=0)
        fail_fit_on_call(monkeypatch, 25)  # inside iteration 1
        result = run_campaign(spec)
        assert result.failures == 1
        assert result.failed_iterations == (1,)
        assert result.iterations == 2


def _empty_engine_config(tmp_path):
    cfg = {
        "protocol": {"parameters": [{"name": "a", "values": [0, 1, 2, 3]},
                                    {"name": "b", "values": [0, 1, 2, 3]}]},
        "requirement": {"goal": {"metric": "m", "direction": "minimize"}},
        "executor": {"kind": "synthetic",
                     "synthetic": {"metrics": {"m": {"expression": "z[0] + z[1]"}},
                                   "noise_std": {"m": 0.1}}},
        "engine": None,
        "termination": {"max_trials": 10},
        "campaign": {"approach": "ei", "base_seed": 7},
    }
    path = tmp_path / "empty_engine.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.mark.parametrize("config", ["crystal_replay", "empty_engine"])
def test_campaign_engine_config_matches_optimize(config, tmp_path, monkeypatch):
    # The campaign and optimize paths must build the same EngineConfig from
    # one YAML, so engine defaults live only in EngineConfig/KernelConfig.
    if config == "crystal_replay":
        path = resources.files("apexopt.data") / "crystal_replay.yaml"
    else:
        path = _empty_engine_config(tmp_path)
    bundle = parse_config(path)
    spec = bundle.campaign_spec(iterations=2, max_trials=8)
    built = []
    real_engine = evalharness.Engine

    def recording_engine(cfg, executor):
        built.append(cfg)
        return real_engine(cfg, executor)

    monkeypatch.setattr(evalharness, "Engine", recording_engine)
    run_campaign(spec)
    assert len(built) == 2
    for i, cfg in enumerate(built):
        expected = bundle.engine_config(seed=spec.base_seed + i,
                                        selector=spec.approach)
        for f in dataclasses.fields(EngineConfig):
            if f.name == "termination":
                continue
            got, want = getattr(cfg, f.name), getattr(expected, f.name)
            if f.name == "space":
                got, want = got.defs, want.defs
            assert got == want, f.name


@pytest.mark.parametrize("approach", evalharness.APPROACHES)
def test_full_budget_replay_campaign_completes(approach):
    # At budget = record count every record is drawn, so each selector must
    # keep choosing open sets until the dataset is used up.
    bundle = parse_config(resources.files("apexopt.data") / "crystal_replay.yaml")
    spec = bundle.campaign_spec(approach=approach, iterations=5, base_seed=0,
                                max_trials=bundle.source.n_records)
    result = run_campaign(spec)
    assert result.failures == 0
    assert result.iterations == 5


class TestTerminationTiming:
    def test_offsets_against_hand_computation(self):
        from apexopt.evalharness import termination_timing

        optimality = np.array([50.0, 70.0, 85.0, 92.0, 99.5])
        alpha = np.array([
            [60.0, 81.0, 90.0, 95.0, 99.0],   # stops at n=2 for t=80
            [10.0, 20.0, 30.0, 85.0, 100.0],  # stops at n=4 for t=80
        ])
        timing = termination_timing(alpha, optimality, thresholds=(80.0,))
        entry = timing["80"]
        assert entry["actual_crossing"] == 3
        assert entry["stopped_iterations"] == 2
        assert entry["signed_mean"] == pytest.approx((2 - 3 + 4 - 3) / 2)
        assert entry["absolute_mean"] == pytest.approx(1.0)

    def test_threshold_never_reached(self):
        from apexopt.evalharness import termination_timing

        timing = termination_timing(np.zeros((2, 4)), np.full(4, 50.0),
                                    thresholds=(99.0,))
        assert timing["99"]["actual_crossing"] is None
        assert timing["99"]["signed_mean"] is None


def test_reported_goal_matrix_matches_heatmap_totals(crystal_space,
                                                     energy_prr_requirement):
    from tests.conftest import make_dataset

    energy = [float(100 + i) for i in range(16)]
    ds = make_dataset(crystal_space, {"energy": energy, "prr": [90.0] * 16})
    spec = CampaignSpec(requirement=energy_prr_requirement, approach="ger",
                        source=ds, iterations=3, max_trials=20, base_seed=0)
    result = run_campaign(spec)
    assert result.reported_goal_matrix.shape == (3, 20)
    defined = ~np.isnan(result.reported_goal_matrix)
    np.testing.assert_array_equal(result.heatmap.sum(axis=1),
                                  defined.sum(axis=0))
