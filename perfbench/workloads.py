"""Workload definitions, the campaign loops and the output checks.

Every campaign runs serially (``jobs=1``): each engine asks for its next
trial only after the previous one returned (a closed loop, one client).

* The *reference* block runs each approach once over a fixed set of
  ``reference_iterations`` engine seeds (campaign base_seed 0). The
  search-quality numbers come from it, so they are exact and comparable
  between commits. It is not timed for the end-to-end metrics.
* The *timed* phase runs passes of ``ROUNDS_PER_PASS`` rounds drawn from
  ``--seed``; one round runs every approach as one campaign of
  ``iterations`` engine runs. Every pass repeats the same rounds, so each
  decision is timed once per pass, and its minimum over the first two
  passes drops the stalls that outside load causes.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

from calib import Speed

SEED_STRIDE = 1_000_000
ROUNDS_PER_PASS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # YAML config, relative to the repository root
    approaches: tuple[str, ...]
    budget: int  # trials per engine run
    iterations: int  # engine runs per approach per timed round
    reference_iterations: int  # engine runs per approach in the reference block
    truth: int  # expected ground-truth optimum
    n_satisfying: int  # expected number of truly satisfying sets


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="replay-crystal",
            config="src/apexopt/data/crystal_replay.yaml",
            approaches=("apex-lcb", "apex-ei", "gel", "ger", "guc", "rl-step", "rl-any"),
            budget=96,
            iterations=3,
            reference_iterations=8,
            truth=4,
            n_satisfying=12,
        ),
        Workload(
            name="planted-synthetic",
            config="perfbench/configs/planted_synthetic.yaml",
            approaches=("apex-ei", "apex-lcb", "ger"),
            budget=96,
            iterations=9,
            reference_iterations=12,
            truth=9,
            n_satisfying=8,
        ),
        Workload(
            name="wide-synthetic",
            config="perfbench/configs/wide_synthetic.yaml",
            approaches=("apex-lcb", "apex-ei", "ger"),
            budget=192,
            iterations=1,
            reference_iterations=4,
            truth=137,
            n_satisfying=136,
        ),
    )
}


def round_seed(seed: int, round_index: int, iterations: int) -> int:
    """Campaign base seed of one timed round; seed 0 starts at base_seed 0."""
    return seed * SEED_STRIDE + round_index * iterations


def build_specs(workload: Workload, root: Path) -> dict:
    """Parse the workload's config and derive one campaign spec per approach."""
    from apexopt import cli

    bundle = cli.parse_config(root / workload.config)
    base = bundle.campaign_spec(
        approach=workload.approaches[0],
        iterations=workload.iterations,
        max_trials=workload.budget,
        base_seed=0,
        jobs=1,
    )
    return {a: dataclasses.replace(base, approach=a) for a in workload.approaches}


@dataclass
class Phase:
    wall_s: float  # inside campaigns only
    cpu_s: float
    attempted: int
    failed: int
    speed: Speed
    results: list  # per round: approach -> CampaignResult


def run_phase(workload: Workload, specs: dict, calibrator, schedule, keep_going,
              on_campaign=None, after_round=None) -> Phase:
    """Run rounds of one campaign per approach: round 0, then more while
    ``keep_going(rounds_done)``. ``schedule(r)`` gives round r's
    (base_seed, iterations). The calibration kernel runs after every
    campaign, outside the campaign timings."""
    from apexopt import evalharness

    speed = Speed()
    wall = cpu = 0.0
    attempted = failed = 0
    results: list[dict] = []
    while not results or keep_going(len(results)):
        base_seed, iterations = schedule(len(results))
        round_results = {}
        for a in workload.approaches:
            if on_campaign is not None:
                on_campaign(a)
            spec = dataclasses.replace(specs[a], base_seed=base_seed,
                                       iterations=iterations)
            t0 = time.perf_counter()
            c0 = time.process_time()
            r = evalharness.run_campaign(spec)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            attempted += r.iterations + r.failures
            failed += r.failures
            round_results[a] = r
            calibrator.sample(speed)
        results.append(round_results)
        if after_round is not None:
            after_round()
    return Phase(wall, cpu, attempted, failed, speed, results)


def warm_up(workload: Workload, specs: dict, calibrator) -> None:
    """One engine run per approach, so lazy imports and BLAS threads start
    before anything is timed."""
    run_phase(workload, specs, calibrator, lambda r: (SEED_STRIDE - 1, 1),
              lambda done: False)


def run_reference(workload: Workload, specs: dict, calibrator, on_campaign=None) -> Phase:
    """The fixed reference block: base_seed 0, ``reference_iterations``."""
    return run_phase(workload, specs, calibrator,
                     lambda r: (0, workload.reference_iterations), lambda done: False,
                     on_campaign)


def run_timed(workload: Workload, specs: dict, calibrator, seed: int, seconds: float,
              after_round) -> Phase:
    """Whole passes over the rounds drawn from ``seed``, at least two, until
    ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    return run_phase(
        workload, specs, calibrator,
        lambda r: (round_seed(seed, r % ROUNDS_PER_PASS, workload.iterations),
                   workload.iterations),
        lambda done: (done % ROUNDS_PER_PASS != 0 or done < 2 * ROUNDS_PER_PASS
                      or time.perf_counter() < deadline),
        after_round=after_round)


def summarize_quality(results: dict) -> dict:
    """Search-quality numbers of the reference block."""
    import numpy as np

    per_approach = {
        a: {
            "em1": r.em1,
            "em2": r.em2,
            "em3": r.em3,
            "auc_pct": float(np.mean(r.optimality)),
            "rmsd_alpha": r.rmsd_alpha,
            "iterations": r.iterations,
            "failures": r.failures,
        }
        for a, r in results.items()
    }
    attempted = sum(p["iterations"] + p["failures"] for p in per_approach.values())
    failures = sum(p["failures"] for p in per_approach.values())
    return {
        "optimality_auc_pct": float(np.mean([p["auc_pct"] for p in per_approach.values()])),
        "rmsd_alpha": float(np.mean([p["rmsd_alpha"] for p in per_approach.values()])),
        "completed_iter_pct": 100.0 * (attempted - failures) / attempted,
        "per_approach": per_approach,
    }


def check_outputs(workload: Workload, results: dict, summary: dict) -> list[str]:
    """Checks on the reference block; returns one message per failure."""
    errors = []
    for a, r in results.items():
        if r.ground_truth_index != workload.truth:
            errors.append(f"{a}: ground truth {r.ground_truth_index}, "
                          f"expected {workload.truth}")
        if len(r.satisfying_indices) != workload.n_satisfying:
            errors.append(f"{a}: {len(r.satisfying_indices)} satisfying sets, "
                          f"expected {workload.n_satisfying}")
        if (r.iterations + r.failures != workload.reference_iterations
                or r.budget != workload.budget):
            errors.append(f"{a}: campaign shape {r.iterations}+{r.failures} "
                          f"iterations x {r.budget} trials")
    if workload.name == "planted-synthetic":
        # The acceptance gate: both GP selectors reach 99% optimality
        # before even exploration does (never counts as budget + 1).
        em1 = {a: p["em1"] for a, p in summary["per_approach"].items()}
        ger = em1["ger"] if em1["ger"] is not None else workload.budget + 1
        for a in ("apex-ei", "apex-lcb"):
            if em1[a] is None or em1[a] >= ger:
                errors.append(f"planted EM1: {a} {em1[a]} not below ger {em1['ger']}")
    return errors


class ReplayAudit:
    """Checks each finished replay executor for a record consumed twice."""

    def __init__(self):
        self.executors = 0
        self.reused = 0

    def __call__(self, executor) -> None:
        consumed = getattr(executor, "consumed", None)
        if consumed is None:
            return
        self.executors += 1
        if len(set(consumed)) != len(consumed):
            self.reused += 1
