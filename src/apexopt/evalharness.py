"""Campaign evaluation over a trace dataset or synthetic landscape.

The optimization process is repeated M times with per-iteration seeds;
each iteration replays recorded (or synthesized) trial results. The
harness aggregates:

* the optimality curve: the percentage of iterations whose reported best
  at trial n equals the ground-truth optimum;
* EM1/EM2/EM3: trials to reach 99% optimality, and the optimality after
  one and two space-sweeps' worth of trials;
* the mean predicted-optimality curves (alpha and the two baselines) and
  their RMSD against the actual optimality curve;
* a constraint-discovery curve (fraction of iterations that have tested
  at least one truly-satisfying set);
* heatmap data: per-trial histograms of the reported best's median goal.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence, Union

import numpy as np

from apexopt.domain import (
    CanonicalForm,
    ConfigError,
    Requirement,
    TerminationCriteria,
    canonicalize,
)
from apexopt.engine import Engine, EngineConfig, normalize_selector
from apexopt.executor import (
    SyntheticSpec,
    TableSource,
    TraceDataset,
    make_executor,
)

APPROACHES = ("apex-lcb", "apex-ei", "gel", "ger", "guc", "rl-step", "rl-any")


def ground_truth_satisfying(
    source: TableSource, requirement: Requirement | CanonicalForm
) -> tuple[int, ...]:
    """Sets whose true constraint values satisfy every constraint.

    True values are the source's per-set tables: record medians of a
    dataset, or the noiseless synthetic landscape.
    """
    canonical = canonicalize(requirement)
    space = source.space
    ok = np.ones(space.n_sets, dtype=bool)
    for c in canonical.constraints:
        # An unrecorded set's NaN median satisfies no constraint.
        ok &= c.satisfied(source.table(c.metric))
    if not canonical.constraints:
        goal = source.table(canonical.goal_metric)
        ok &= ~np.isnan(goal)
    return tuple(int(i) for i in np.flatnonzero(ok))


def ground_truth_optimal(
    source: TableSource, requirement: Requirement | CanonicalForm
) -> int | None:
    """The satisfying set with the best true median goal; None if no set
    satisfies the constraints (constraint-finding mode)."""
    canonical = canonicalize(requirement)
    satisfying = ground_truth_satisfying(source, requirement)
    if not satisfying:
        return None
    goal = canonical.goal_sign * source.table(canonical.goal_metric)
    cand = np.asarray(satisfying, dtype=int)
    return int(cand[np.argmin(goal[cand])])


@dataclass
class CampaignSpec:
    requirement: Requirement
    approach: str
    source: TableSource
    iterations: int = 1000
    max_trials: int | None = None
    base_seed: int = 0
    # EngineConfig keywords shared by every iteration; ``approach`` and the
    # per-iteration seed take precedence over "selector" and "seed".
    engine: Mapping[str, Any] = field(default_factory=dict)
    bins: int = 20
    jobs: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.source, (TraceDataset, SyntheticSpec)):
            raise ConfigError(
                "campaign source must be a TraceDataset or a SyntheticSpec, "
                f"got {type(self.source).__name__}"
            )
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        normalize_selector(self.approach)
        if self.max_trials is None:
            if isinstance(self.source, TraceDataset):
                self.max_trials = self.source.n_records
            else:
                self.max_trials = 6 * self.source.space.n_sets
        if self.max_trials < 1:
            raise ConfigError("max_trials must be >= 1")
        if self.bins < 1:
            raise ConfigError("bins must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")


def _run_iteration(spec: CampaignSpec, iteration: int) -> np.ndarray | None:
    """One seeded run as a (6, budget) array, or None when it aborted or
    stopped before the budget.

    Rows, one column per trial: the tested set, the reported set (-1 when
    undefined), the reported set's median goal (nan when undefined),
    alpha, alpha_b1 and alpha_b2.
    """
    seed = spec.base_seed + iteration
    space = spec.source.space
    executor = make_executor(spec.source, space, seed, spec.requirement.metric_names)
    cfg = EngineConfig(
        space=space,
        requirement=spec.requirement,
        termination=TerminationCriteria(max_trials=spec.max_trials),
        **{**spec.engine, "selector": spec.approach, "seed": seed},
    )
    result = Engine(cfg, executor).run()
    if result.aborted or len(result.trials) < spec.max_trials:
        return None
    return np.array(
        [
            (
                e.set_index,
                -1 if e.reported_index is None else e.reported_index,
                np.nan if e.reported_index is None else e.reported_goal_median,
                e.alpha,
                e.alpha_b1,
                e.alpha_b2,
            )
            for e in result.trials
        ],
        dtype=float,
    ).T


@dataclass
class CampaignResult:
    approach: str
    budget: int
    iterations: int
    failures: int
    n_sets: int
    ground_truth_index: int | None
    satisfying_indices: tuple[int, ...]
    optimality: np.ndarray
    mean_alpha: np.ndarray
    mean_alpha_b1: np.ndarray
    mean_alpha_b2: np.ndarray
    constraint_discovery: np.ndarray
    constraint_crossing: int | None
    heatmap: np.ndarray
    heatmap_edges: np.ndarray
    em1: int | None
    em2: float | None
    em3: float | None
    rmsd_alpha: float | None
    rmsd_alpha_b1: float | None
    rmsd_alpha_b2: float | None
    reported_matrix: np.ndarray  # (iterations, budget)
    reported_goal_matrix: np.ndarray = None  # (iterations, budget), original units
    termination_timing: dict = field(default_factory=dict)
    failed_iterations: tuple[int, ...] = ()

    @property
    def scored(self) -> bool:
        """Whether ``optimality`` is a measurement: some iteration
        completed and a ground-truth optimum exists."""
        return self.iterations > 0 and self.ground_truth_index is not None


def em_metrics(
    optimality: np.ndarray, n_sets: int
) -> tuple[int | None, float | None, float | None]:
    """(trials to 99% optimality, optimality at n_sets, at 2*n_sets)."""
    curve = np.asarray(optimality, dtype=float)
    reached = np.flatnonzero(curve >= 99.0)
    em1 = int(reached[0]) + 1 if reached.size else None
    em2 = float(curve[n_sets - 1]) if curve.size >= n_sets else None
    em3 = float(curve[2 * n_sets - 1]) if curve.size >= 2 * n_sets else None
    return em1, em2, em3


def rmsd_alpha(mean_alpha: np.ndarray, optimality: np.ndarray) -> float:
    """Root mean square deviation between predicted and actual optimality."""
    diff = np.asarray(mean_alpha, dtype=float) - np.asarray(optimality, dtype=float)
    return float(np.sqrt(np.mean(diff**2)))


def termination_timing(
    alpha_matrix: np.ndarray,
    optimality: np.ndarray,
    thresholds: Sequence[float] = (80.0, 90.0, 99.0),
) -> dict:
    """Trial offsets between alpha-based stopping and actual optimality.

    For each threshold t: the trial at which an iteration would stop when
    using its own alpha(n) >= t, minus the trial at which the campaign's
    actual optimality first reaches t. Early and late stops carry opposite
    signs, so both the signed and the absolute mean are reported.
    """
    out = {}
    for t in thresholds:
        reached = np.flatnonzero(np.asarray(optimality) >= t)
        actual = int(reached[0]) + 1 if reached.size else None
        diffs = []
        stopped = 0
        if actual is not None and alpha_matrix.size:
            for row in alpha_matrix:
                hit = np.flatnonzero(row >= t)
                if hit.size:
                    stopped += 1
                    diffs.append(int(hit[0]) + 1 - actual)
        out[f"{t:g}"] = {
            "actual_crossing": actual,
            "stopped_iterations": stopped,
            "signed_mean": float(np.mean(diffs)) if diffs else None,
            "absolute_mean": float(np.mean(np.abs(diffs))) if diffs else None,
        }
    return out


def constraint_discovery_curve(
    tested_matrix: np.ndarray, satisfying: Sequence[int]
) -> tuple[np.ndarray, int | None]:
    """Per-trial fraction of iterations that tested a satisfying set,
    plus the trial at which the fraction crosses 99%."""
    if tested_matrix.size == 0 or not satisfying:
        budget = tested_matrix.shape[1] if tested_matrix.ndim == 2 else 0
        return np.zeros(budget), None
    sat = np.isin(tested_matrix, np.asarray(list(satisfying), dtype=int))
    hit = np.cumsum(sat, axis=1) > 0
    curve = hit.mean(axis=0)
    crossed = np.flatnonzero(curve >= 0.99)
    return curve, (int(crossed[0]) + 1 if crossed.size else None)


def _goal_span(source: TableSource, goal_metric: str) -> tuple[float, float]:
    if isinstance(source, SyntheticSpec):
        table = source.table(goal_metric)
        return float(np.min(table)), float(np.max(table))
    values = [
        rec.metrics[goal_metric]
        for group in source.records_by_set
        for rec in group
        if goal_metric in rec.metrics
    ]
    if not values:
        return 0.0, 1.0
    return float(min(values)), float(max(values))


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run M seeded iterations and aggregate the evaluation curves.

    With ``jobs > 1`` the iterations run in that many worker processes,
    otherwise here. Either way each runs ``Engine.run``, which puts BLAS
    on one thread, so both give equal results.
    """
    if spec.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            outcomes = list(
                pool.map(_run_iteration, [spec] * spec.iterations,
                         range(spec.iterations))
            )
    else:
        outcomes = [_run_iteration(spec, i) for i in range(spec.iterations)]
    runs = [o for o in outcomes if o is not None]
    failed = tuple(i for i, o in enumerate(outcomes) if o is None)
    budget = spec.max_trials
    n_sets = spec.source.space.n_sets
    canonical = canonicalize(spec.requirement)
    truth = ground_truth_optimal(spec.source, canonical)
    satisfying = ground_truth_satisfying(spec.source, canonical)

    # (M, 6, budget) with M >= 0; each row is copied out, so the result
    # holds no view of the stack.
    stack = np.array(runs, dtype=float).reshape(len(runs), 6, budget)
    tested, reported, goals, alpha_matrix, alpha_b1, alpha_b2 = (
        np.array(stack[:, row]) for row in range(6)
    )
    tested, reported = tested.astype(int), reported.astype(int)

    def mean(matrix: np.ndarray) -> np.ndarray:
        """Per-trial mean over the completed runs; zeros when there are none."""
        return matrix.sum(axis=0) / max(len(runs), 1)

    mean_alpha, mean_b1, mean_b2 = mean(alpha_matrix), mean(alpha_b1), mean(alpha_b2)
    if truth is not None:
        optimality = 100.0 * mean(reported == truth)
    else:
        optimality = np.zeros(budget)
    # With no completed run the curves above are zeros, and without a
    # ground-truth optimum optimality is undefined: not measurements.
    scored = truth is not None and bool(runs)
    em1, em2, em3 = em_metrics(optimality, n_sets) if scored else (None, None, None)

    lo, hi = _goal_span(spec.source, canonical.goal_metric)
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, spec.bins + 1)
    heatmap = np.zeros((budget, spec.bins), dtype=int)
    for k in range(budget):
        col = goals[:, k]
        col = col[~np.isnan(col)]
        if col.size:
            heatmap[k], _ = np.histogram(np.clip(col, lo, hi), bins=edges)

    discovery, crossing = constraint_discovery_curve(tested, satisfying)
    timing = termination_timing(alpha_matrix, optimality)

    return CampaignResult(
        approach=normalize_selector(spec.approach),
        budget=budget,
        iterations=len(runs),
        failures=len(failed),
        n_sets=n_sets,
        ground_truth_index=truth,
        satisfying_indices=satisfying,
        optimality=optimality,
        mean_alpha=mean_alpha,
        mean_alpha_b1=mean_b1,
        mean_alpha_b2=mean_b2,
        constraint_discovery=discovery,
        constraint_crossing=crossing,
        heatmap=heatmap,
        heatmap_edges=edges,
        em1=em1,
        em2=em2,
        em3=em3,
        rmsd_alpha=rmsd_alpha(mean_alpha, optimality) if scored else None,
        rmsd_alpha_b1=rmsd_alpha(mean_b1, optimality) if scored else None,
        rmsd_alpha_b2=rmsd_alpha(mean_b2, optimality) if scored else None,
        reported_matrix=reported,
        reported_goal_matrix=goals,
        termination_timing=timing,
        failed_iterations=failed,
    )


def campaign_summary(result: CampaignResult, spec: CampaignSpec) -> dict:
    """JSON-ready summary (deterministic content, no timestamps)."""
    space = spec.source.space
    truth = result.ground_truth_index
    return {
        "schema_version": 1,
        "approach": result.approach,
        "iterations": result.iterations,
        "failures": result.failures,
        "failed_iterations": list(result.failed_iterations),
        "budget": result.budget,
        "base_seed": spec.base_seed,
        "n_sets": result.n_sets,
        "mode": "optimality" if truth is not None else "constraint-finding",
        "ground_truth": (
            {
                "index": truth,
                "params": space.set_at(truth).as_dict(space),
            }
            if truth is not None
            else None
        ),
        "satisfying_sets": list(result.satisfying_indices),
        "em1": result.em1,
        "em2": result.em2,
        "em3": result.em3,
        "rmsd_alpha": result.rmsd_alpha,
        "rmsd_alpha_b1": result.rmsd_alpha_b1,
        "rmsd_alpha_b2": result.rmsd_alpha_b2,
        "constraint_crossing": result.constraint_crossing,
        "termination_timing": result.termination_timing,
        "final_optimality": float(result.optimality[-1]) if result.scored else None,
        "heatmap_edges": [float(e) for e in result.heatmap_edges],
    }


def write_campaign_csv(result: CampaignResult, path: Union[str, Path]) -> None:
    """One row per trial: curves plus the heatmap bins.

    A curve cell is empty where the curve is not a measurement: every
    curve when no iteration completed, optimality also when there is no
    ground-truth optimum.
    """
    path = Path(path)
    bins = result.heatmap.shape[1]
    measured = result.iterations > 0
    curves = (
        (result.optimality, result.scored),
        (result.mean_alpha, measured),
        (result.mean_alpha_b1, measured),
        (result.mean_alpha_b2, measured),
        (result.constraint_discovery, measured),
    )
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "optimality", "mean_alpha", "mean_alpha_b1", "mean_alpha_b2",
             "constraint_discovery"]
            + [f"bin_{i}" for i in range(bins)]
        )
        for k in range(result.budget):
            writer.writerow(
                [k + 1]
                + [f"{curve[k]:.6f}" if defined else "" for curve, defined in curves]
                + [int(v) for v in result.heatmap[k]]
            )

