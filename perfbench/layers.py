"""Which ``apexopt`` functions are wrapped in a traced run, and the
per-layer metrics derived from the recorded spans.

A layer is a module; span names are ``<module>.<operation>``. The map from
each per-layer metric to the end-to-end metric it should move is in
README.md.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from spans import Target, Tracer, covered, percentile

MODULES = ("surrogate", "confidence", "acquisition", "baselines", "executor",
           "engine", "evalharness")


def _rows(args, result):
    return len(args[1])


def _points(args, result):
    return len(args[1]) if getattr(args[1], "ndim", 1) > 1 else 1


def _flag(args, result):
    return 1.0 if result else 0.0


def _count(args, result):
    return len(result)


def _bind_iteration(tracer, args):
    tracer.iteration = args[0].config.seed
    tracer.trial = 0


def _bind_trial(tracer, args):
    tracer.trial = args[2]


CAMPAIGN_TARGETS = (
    Target("apexopt.evalharness:run_campaign", "evalharness.campaign"),
    Target("apexopt.evalharness:_run_iteration", "evalharness.iteration"),
    Target("apexopt.engine:Engine.run", "engine.run", bind=_bind_iteration),
    Target("apexopt.engine:AnalysisState.update", "engine.update"),
    Target("apexopt.surrogate:fit_many_xy", "surrogate.fit", size=_rows),
    Target("apexopt.surrogate:fit_xy", "surrogate.fit", size=_rows),
    Target("apexopt.surrogate:GPModel.predict_coords", "surrogate.predict", size=_points),
    Target("apexopt.confidence:optimality_alpha", "confidence.alpha"),
    Target("apexopt.confidence:robustness_beta", "confidence.beta"),
    Target("apexopt.confidence:kappa", "confidence.kappa"),
    Target("apexopt.confidence:alpha_b1", "confidence.alpha_b1"),
    Target("apexopt.confidence:alpha_b2", "confidence.alpha_b2"),
    Target("apexopt.acquisition:lcb_values", "acquisition.score"),
    Target("apexopt.acquisition:ei_values", "acquisition.score"),
    Target("apexopt.acquisition:detect_trap", "acquisition.trap", size=_flag),
    Target("apexopt.acquisition:escape_goal_outlier", "acquisition.escape_goal"),
    Target("apexopt.acquisition:escape_constraint", "acquisition.escape_constraint"),
    Target("apexopt.baselines:gel_select", "baselines.select"),
    Target("apexopt.baselines:guc_select", "baselines.select"),
    Target("apexopt.baselines:GerSchedule.select", "baselines.select"),
    Target("apexopt.baselines:_RlPolicy.propose", "baselines.select"),
    Target("apexopt.baselines:_RlPolicy.update", "baselines.update"),
    Target("apexopt.baselines:SurrogateLite.fit", "baselines.fit"),
    Target("apexopt.executor:ReplayExecutor.run_trial", "executor.trial", bind=_bind_trial),
    Target("apexopt.executor:SyntheticExecutor.run_trial", "executor.trial", bind=_bind_trial),
    Target("apexopt.executor:ReplayExecutor.unavailable_sets", "executor.unavailable",
           size=_count),
    Target("apexopt.executor:SyntheticExecutor.unavailable_sets", "executor.unavailable",
           size=_count),
)

SETUP_TARGETS = (
    Target("apexopt.cli:parse_config", "cli.parse_config"),
    Target("apexopt.executor:load_dataset", "executor.load_dataset"),
)

CLOCK_TARGETS = tuple(t for t in CAMPAIGN_TARGETS if t.span == "executor.trial")


def select_times(gap_starts, gap_ends, update_spans) -> list[float]:
    """Per decision gap: the gap minus the ``engine.update`` time inside it."""
    updates = sorted((s.start, s.end) for s in update_spans)
    starts = [u[0] for u in updates]
    out = []
    for a, b in zip(gap_starts, gap_ends):
        lo = bisect.bisect_left(starts, a)
        hi = bisect.bisect_right(starts, b)
        out.append((b - a) - covered(a, b, updates[lo:hi]))
    return out


def layer_metrics(tracer: Tracer, gap_starts, gap_ends, wall_s: float) -> dict:
    """Per-layer numbers from one traced phase (values without units)."""
    spans = tracer.spans
    self_times = tracer.self_times()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def durations(name):
        return [spans[i].end - spans[i].start for i in by_name[name]]

    def calls(name):
        return float(len(by_name[name]))

    def us(name, p=50.0):
        return percentile(durations(name), p) * 1e6

    def busy(name):
        return sum(durations(name))

    def size_mean(name):
        sizes = [spans[i].size for i in by_name[name]]
        return sum(sizes) / len(sizes) if sizes else 0.0

    updates = [spans[i] for i in by_name["engine.update"]]
    m = {
        "surrogate.fit_calls": calls("surrogate.fit"),
        "surrogate.fit_rows_mean": size_mean("surrogate.fit"),
        "surrogate.fit_us_p50": us("surrogate.fit"),
        "surrogate.fit_busy_s": busy("surrogate.fit"),
        "surrogate.predict_calls": calls("surrogate.predict"),
        "surrogate.predict_points_mean": size_mean("surrogate.predict"),
        "surrogate.predict_us_p50": us("surrogate.predict"),
        "surrogate.predict_busy_s": busy("surrogate.predict"),
        "confidence.alpha_calls": calls("confidence.alpha"),
        "confidence.alpha_us_p50": us("confidence.alpha"),
        "confidence.alpha_busy_s": busy("confidence.alpha"),
        "confidence.beta_calls": calls("confidence.beta"),
        "confidence.beta_us_p50": us("confidence.beta"),
        "acquisition.score_calls": calls("acquisition.score"),
        "acquisition.score_us_p50": us("acquisition.score"),
        "acquisition.trap_ratio": size_mean("acquisition.trap"),
        "acquisition.escape_constraint_calls": calls("acquisition.escape_constraint"),
        "acquisition.escape_constraint_us_p50": us("acquisition.escape_constraint"),
        "baselines.select_calls": calls("baselines.select"),
        "baselines.select_us_p50": us("baselines.select"),
        "executor.trial_calls": calls("executor.trial"),
        "executor.trial_us_p50": us("executor.trial"),
        "executor.unavailable_calls": calls("executor.unavailable"),
        "executor.unavailable_us_p50": us("executor.unavailable"),
        "executor.set_exhausted_ratio": (
            sum(1 for i in by_name["executor.unavailable"] if spans[i].size > 0)
            / max(len(by_name["executor.unavailable"]), 1)
        ),
        "engine.update_calls": calls("engine.update"),
        "engine.update_us_p50": us("engine.update"),
        "engine.update_us_p99": us("engine.update", 99.0),
        "engine.update_self_us_p50": percentile(
            [self_times[i] for i in by_name["engine.update"]], 50.0) * 1e6,
        "engine.select_us_p50": percentile(
            select_times(gap_starts, gap_ends, updates), 50.0) * 1e6,
        "evalharness.iteration_s_p50": percentile(durations("evalharness.iteration"), 50.0),
        "evalharness.aggregate_s": busy("evalharness.campaign") - busy("engine.run"),
    }
    for module in MODULES:
        own = sum(self_times[i] for name, idx in by_name.items()
                  if name.startswith(module + ".") for i in idx)
        m[f"{module}.busy_share"] = own / wall_s
    return m
