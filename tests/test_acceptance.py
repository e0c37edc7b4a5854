"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass line per criterion. The planted-optimum campaign is the slowest
piece (three 500-iteration campaigns) and is budgeted at ten minutes.

The trace-ordering test at the end is data-dependent: it only runs when
the environment variable APEX_OPT_AR2_TRACES points at a released trace
dataset; otherwise it is skipped.
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
import yaml

from apexopt.acquisition import ei_values
from apexopt.cli import main
from apexopt.confidence import (
    SuboptimalityTrace,
    kappa,
    optimality_alpha,
    robustness_beta,
)
from apexopt.domain import (
    CanonicalConstraint,
    ConstraintSpec,
    MetricSpec,
    ParameterDef,
    ParameterSpace,
    Requirement,
)
from apexopt.evalharness import CampaignSpec, run_campaign
from apexopt.executor import (
    JobFailedError,
    RemoteConfig,
    RemoteExecutor,
    ReplayExecutor,
    SyntheticSpec,
    TrialTimeoutError,
    load_dataset,
    remote_trial,
)
from apexopt.surrogate import KernelConfig, fit_xy, kernel_matrix


def _ok(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}", flush=True)


# -- planted-optimum campaign (shared by two criteria) ------------------------

CAMPAIGN_ITERATIONS = 500
CAMPAIGN_BUDGET = 96

GOAL_TABLE = np.array(
    [60, 70, 80, 90, 95, 100, 105, 110,       # infeasible decoys, attractive
     220, 140, 230, 240, 210, 225, 245, 260],  # feasible, optimum at index 9
    dtype=float,
)
QUALITY_TABLE = np.array([10.0] * 8 + [90.0] * 8)  # bound 50 excludes half
GOAL_NOISE = 0.10 * (GOAL_TABLE.max() - GOAL_TABLE.min())
QUALITY_NOISE = 10.0


def _campaign_space() -> ParameterSpace:
    return ParameterSpace(
        [ParameterDef("a", (0.0, 1.0, 2.0, 3.0)),
         ParameterDef("b", (0.0, 1.0, 2.0, 3.0))]
    )


def _campaign_requirement() -> Requirement:
    return Requirement(
        goal=MetricSpec("latency", "minimize"),
        constraints=(ConstraintSpec("quality", ">=", 50.0, 0.5),),
    )


@pytest.fixture(scope="module")
def planted_campaigns():
    space = _campaign_space()
    results = {}
    t0 = time.monotonic()
    for approach in ("apex-ei", "apex-lcb", "ger"):
        spec = CampaignSpec(
            requirement=_campaign_requirement(),
            approach=approach,
            source=SyntheticSpec(
                space,
                {"latency": GOAL_TABLE.copy(), "quality": QUALITY_TABLE.copy()},
                {"latency": GOAL_NOISE, "quality": QUALITY_NOISE},
            ),
            iterations=CAMPAIGN_ITERATIONS,
            max_trials=CAMPAIGN_BUDGET,
            base_seed=0,
        )
        results[approach] = run_campaign(spec)
    results["elapsed"] = time.monotonic() - t0
    return results


class TestGpOracleEquivalence:
    def test_criterion_cholesky_matches_explicit_inverse(self):
        """100 random problems, <= 50 points, 1-3 dims, 1e-8 relative."""
        rng = np.random.default_rng(2024)
        t0 = time.monotonic()
        for _ in range(100):
            dims = int(rng.integers(1, 4))
            space = ParameterSpace(
                [
                    ParameterDef(
                        f"p{d}",
                        tuple(sorted(rng.uniform(-10, 10,
                                                 size=int(rng.integers(2, 7))))),
                    )
                    for d in range(dims)
                ]
            )
            n = int(rng.integers(1, 51))
            idx = [int(i) for i in rng.integers(0, space.n_sets, size=n)]
            y = [float(v) for v in rng.normal(rng.uniform(-100, 100),
                                              rng.uniform(0.5, 40), size=n)]
            cfg = KernelConfig(
                length_scale=float(rng.uniform(0.3, 2.0)),
                noise_variance=float(rng.uniform(0.01, 0.5)),
            )
            model = fit_xy(space, idx, y, cfg)
            queries = range(min(space.n_sets, 64))
            mean, var = model.predict_sets(queries)

            coords = space.normalized_all()[np.asarray(idx, int)]
            y_arr = np.asarray(y)
            y_mean, y_std = y_arr.mean(), y_arr.std() or 1.0
            k = kernel_matrix(cfg, coords, coords)
            k_inv = np.linalg.inv(k + (cfg.noise_variance + cfg.jitter) * np.eye(n))
            q = space.normalized_all()[np.asarray(list(queries), int)]
            k_star = kernel_matrix(cfg, coords, q)
            o_mean = y_mean + y_std * (k_star.T @ k_inv @ ((y_arr - y_mean) / y_std))
            o_var = y_std**2 * np.maximum(
                cfg.signal_variance - np.sum(k_star * (k_inv @ k_star), axis=0), 0.0
            )
            np.testing.assert_allclose(mean, o_mean, rtol=1e-8, atol=1e-9)
            np.testing.assert_allclose(var, o_var, rtol=1e-8, atol=1e-9)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"GP oracle comparison took {elapsed:.1f}s"
        _ok(f"GP oracle equivalence (100 problems, {elapsed:.1f}s)")


def _beta_brute_force(n: int, l: int, p: float) -> float:
    """Bernoulli-convolution enumeration of P(successes <= l-1)."""
    pmf = [1.0]
    for _ in range(n):
        nxt = [0.0] * (len(pmf) + 1)
        for k, mass in enumerate(pmf):
            nxt[k] += mass * (1.0 - p)
            nxt[k + 1] += mass * p
        pmf = nxt
    return sum(pmf[:l])


class TestBetaFormula:
    def test_criterion_beta_matches_enumeration(self):
        """All N <= 20, l <= N, p in {0.25, 0.5, 0.9}, 1e-12 absolute."""
        constraint = lambda p: CanonicalConstraint("m", 1.0, 0.0, p)
        for p in (0.25, 0.5, 0.9):
            for n in range(1, 21):
                for l in range(n + 1):
                    values = [-1.0] * l + [1.0] * (n - l)
                    beta = robustness_beta(values, constraint(p))
                    assert beta == pytest.approx(
                        _beta_brute_force(n, l, p), abs=1e-12
                    ), (n, l, p)
        # Exact rational check of the six-repetition median bound.
        pmf = [Fraction(1)]
        for _ in range(6):
            nxt = [Fraction(0)] * (len(pmf) + 1)
            for k, mass in enumerate(pmf):
                nxt[k] += mass * Fraction(1, 2)
                nxt[k + 1] += mass * Fraction(1, 2)
            pmf = nxt
        exact = sum(pmf[:6])
        assert exact == Fraction(63, 64)
        beta = robustness_beta([-1.0] * 6, constraint(0.5))
        assert beta == pytest.approx(float(exact), abs=1e-15)
        assert round(beta, 3) == 0.984
        _ok("beta formula vs brute-force enumeration (63/64 case included)")


class TestKappaFormula:
    def test_criterion_kappa_closed_form_grid(self):
        for d in (1, 4, 16, 36, 100, 500):
            for n in (1, 2, 5, 10, 50, 200):
                for delta in (0.05, 0.1, 0.5, 0.9):
                    expected = math.sqrt(
                        2.0 * math.log(d * n**2 * math.pi**2 / (6.0 * delta))
                    )
                    assert kappa(n, d, delta) == pytest.approx(expected, abs=1e-12)
        assert kappa(1, 16, 0.1) == pytest.approx(3.3385, abs=5e-4)
        _ok("kappa closed form on (|D|, n, delta) grid; spot value 3.3385")


class TestEiProperties:
    def test_criterion_ei_properties_and_spot_checks(self):
        rng = np.random.default_rng(7)
        mean = rng.normal(0, 20, size=5000)
        std = np.abs(rng.normal(0, 3, size=5000))
        f_best = float(rng.normal())
        assert np.all(ei_values(mean, std, f_best) >= 0.0)
        # Vanishing uncertainty above the incumbent.
        tiny = ei_values(np.array([f_best + 1.0]), np.array([1e-12]), f_best)
        assert abs(tiny[0]) < 1e-9
        # Z = 0: EI = sigma * phi(0) = 0.39894 * sigma.
        for sigma in (0.5, 1.0, 2.0):
            value = ei_values(np.array([0.0]), np.array([sigma]), 0.0)[0]
            assert value == pytest.approx(0.39894 * sigma, abs=1e-5)
        # Z = 2 at sigma 1: 2 Phi(2) + phi(2) = 2.00849.
        value = ei_values(np.array([0.0]), np.array([1.0]), 2.0)[0]
        assert value == pytest.approx(2.00849, abs=1e-5)
        _ok("EI nonnegativity, continuity at sigma->0, closed-form spot checks")


class TestAlphaBehavior:
    def test_criterion_alpha_regimes_and_range(self):
        constant = SuboptimalityTrace()
        for _ in range(20):
            constant.record(2.5)
        alpha_const, _ = optimality_alpha(constant)
        assert alpha_const <= 10.0

        saturated = SuboptimalityTrace()
        for _ in range(8):
            saturated.record(7.0)
        for _ in range(32):
            saturated.record(0.0)
        alpha_sat, _ = optimality_alpha(saturated)
        assert alpha_sat >= 90.0

        rng = np.random.default_rng(123)
        for _ in range(1000):
            trace = SuboptimalityTrace()
            n = int(rng.integers(3, 60))
            kind = rng.integers(3)
            if kind == 0:
                taus = rng.normal(0, 10, size=n)
            elif kind == 1:
                taus = np.abs(rng.normal(5, 5, size=n))
            else:
                taus = np.maximum(rng.normal(20, 5, size=n)
                                  * np.exp(-np.arange(n) / 5.0), 0)
            for t in taus:
                trace.record(float(t))
            alpha, _ = optimality_alpha(trace)
            assert 0.0 <= alpha <= 100.0
        _ok(
            f"alpha regimes: constant-tau {alpha_const:.1f} <= 10, "
            f"saturated {alpha_sat:.1f} >= 90, range held on 1000 traces"
        )


class TestPlantedCampaign:
    def test_criterion_apex_beats_even_exploration(self, planted_campaigns):
        """Planted 4x4 campaign: both GP selectors reach 99% optimality
        strictly before GER and within 0.7x its trial count."""
        ger = planted_campaigns["ger"]
        ei = planted_campaigns["apex-ei"]
        lcb = planted_campaigns["apex-lcb"]
        for result in (ger, ei, lcb):
            assert result.failures == 0
            assert result.ground_truth_index == 9
        assert ei.em1 is not None and lcb.em1 is not None
        # GER's crossing may in principle fall outside the budget; bound it
        # below by the budget in that case.
        ger_em1 = ger.em1 if ger.em1 is not None else CAMPAIGN_BUDGET + 1
        assert ei.em1 < ger_em1 and lcb.em1 < ger_em1
        assert ei.em1 <= 0.7 * ger_em1
        assert lcb.em1 <= 0.7 * ger_em1
        assert planted_campaigns["elapsed"] < 600.0
        _ok(
            f"planted campaign EM1: apex-ei {ei.em1}, apex-lcb {lcb.em1}, "
            f"ger {ger_em1} ({planted_campaigns['elapsed']:.0f}s for "
            f"3x{CAMPAIGN_ITERATIONS} iterations)"
        )

    def test_criterion_apex_beats_exhaustive_budget(self, planted_campaigns):
        """apex-ei reaches 99% optimality within the exhaustive-search
        budget of n_sets * records-per-set trials."""
        ei = planted_campaigns["apex-ei"]
        assert ei.em1 is not None
        assert ei.em1 < CAMPAIGN_BUDGET
        _ok(f"apex-ei EM1 {ei.em1} < exhaustive budget {CAMPAIGN_BUDGET}")


class TestReplayIntegrity:
    def test_criterion_no_record_reuse_and_seed_determinism(
        self, bundled_dataset
    ):
        """1000 seeded replay runs: no record consumed twice, identical
        seeds give bit-identical trial logs."""
        total = bundled_dataset.n_records
        assert total == 96 and bundled_dataset.space.n_sets == 16

        def run_once(seed: int):
            executor = ReplayExecutor(bundled_dataset, seed)
            rng = np.random.default_rng(seed + 10_000)
            log = []
            for trial in range(1, 97):
                open_sets = [
                    i for i in range(16)
                    if i not in executor.unavailable_sets()
                ]
                if not open_sets:
                    break
                idx = int(open_sets[rng.integers(len(open_sets))])
                obs = executor.run_trial(idx, trial)
                log.append((obs.set_index, tuple(sorted(obs.metrics.items()))))
            return log, executor.consumed

        for seed in range(1000):
            log, consumed = run_once(seed)
            assert len(set(consumed)) == len(consumed), f"seed {seed} reused a record"
            assert len(consumed) <= total
        log_a, consumed_a = run_once(424242)
        log_b, consumed_b = run_once(424242)
        assert log_a == log_b and consumed_a == consumed_b
        _ok("replay integrity over 1000 seeded runs; bit-identical on same seed")


class TestEndToEndDeterminism:
    def test_criterion_campaign_outputs_byte_identical(
        self, tmp_path, bundled_dataset_path
    ):
        """The campaign command run twice on one config produces
        byte-identical JSON summaries."""
        config = {
            "protocol": {
                "parameters": [
                    {"name": "tx_power", "values": [-5, -3, -1, 0]},
                    {"name": "n_tx", "values": [1, 2, 3, 4]},
                ]
            },
            "requirement": {
                "goal": {"metric": "energy", "direction": "minimize"},
                "constraints": [
                    {"metric": "prr", "relation": ">=", "bound": 65,
                     "percentile": 0.5}
                ],
            },
            "executor": {"kind": "replay",
                         "replay": {"path": bundled_dataset_path}},
            "termination": {"max_trials": 40},
            "campaign": {"approach": "apex-ei", "iterations": 12,
                         "max_trials": 40, "base_seed": 5},
        }
        path = tmp_path / "campaign.yaml"
        path.write_text(yaml.safe_dump(config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["campaign", str(path), "--out", str(out_a)]) == 0
        assert main(["campaign", str(path), "--out", str(out_b)]) == 0
        summary_a = (out_a / "campaign_summary.json").read_bytes()
        summary_b = (out_b / "campaign_summary.json").read_bytes()
        assert summary_a == summary_b
        assert (out_a / "campaign_trials.csv").read_bytes() == (
            out_b / "campaign_trials.csv"
        ).read_bytes()
        json.loads(summary_a)  # well-formed
        _ok("byte-identical campaign summaries across reruns")


class TestRemoteStubProtocol:
    def test_criterion_remote_paths(self, mock_testbed, crystal_space):
        """Happy path, job failure, and timeout against the mock server."""
        t0 = time.monotonic()
        base = mock_testbed(mode="done", metrics={"energy": 190.5, "prr": 88.0})
        cfg = RemoteConfig(endpoint=base, poll_interval=0.01, trial_duration=0.1)
        obs = RemoteExecutor(cfg, crystal_space).run_trial(7, 1)
        assert obs.metrics == {"energy": 190.5, "prr": 88.0}

        failing = mock_testbed(mode="failed")
        with pytest.raises(JobFailedError):
            remote_trial(RemoteConfig(endpoint=failing, poll_interval=0.01,
                                      trial_duration=0.1), {"n_tx": 1})

        stuck = mock_testbed(mode="stuck")
        with pytest.raises(TrialTimeoutError):
            remote_trial(
                RemoteConfig(endpoint=stuck, poll_interval=0.02,
                             trial_duration=0.05, timeout=0.1),
                {"n_tx": 1},
            )
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        _ok(f"remote stub happy/failed/timeout paths ({elapsed:.2f}s)")


@pytest.mark.skipif(
    "APEX_OPT_AR2_TRACES" not in os.environ,
    reason="released AR2 traces not provided (set APEX_OPT_AR2_TRACES)",
)
class TestReleasedTracesOrdering:
    def test_criterion_ar2_ordering(self):
        """Data-dependent: reproduce the selector ordering on the released
        AR2 traces and land apex-lcb within +-5 trials of 20."""
        dataset = load_dataset(os.environ["APEX_OPT_AR2_TRACES"])
        requirement = Requirement(
            goal=MetricSpec("energy", "minimize", "J"),
            constraints=(ConstraintSpec("prr", ">=", 92.0, 0.5),),
        )
        iterations = int(os.environ.get("APEX_OPT_AR2_ITERATIONS", "1000"))
        em1 = {}
        for approach in ("apex-lcb", "apex-ei", "rl-any", "ger", "gel", "guc"):
            spec = CampaignSpec(
                requirement=requirement,
                approach=approach,
                source=dataset,
                iterations=iterations,
                max_trials=dataset.n_records,
                base_seed=0,
            )
            result = run_campaign(spec)
            em1[approach] = (
                result.em1 if result.em1 is not None else result.budget + 1
            )
        assert em1["apex-lcb"] < em1["apex-ei"] < em1["rl-any"] <= em1["ger"]
        assert em1["ger"] < em1["gel"] <= em1["guc"]
        assert abs(em1["apex-lcb"] - 20) <= 5
        _ok(f"released-trace EM1 ordering {em1}")
